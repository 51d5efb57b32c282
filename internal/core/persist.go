package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
)

// modelFileVersion identifies the persisted model format.
const modelFileVersion = 1

// modelFile is the on-disk layout of a model set.
type modelFile struct {
	Version int `json:"version"`
	// App maps application callpaths to models.
	App map[string]*modeling.Model `json:"app"`
	// Kernel maps metric → callpath → model.
	Kernel map[measurement.Metric]map[string]*modeling.Model `json:"kernel"`
}

// EncodeModels canonically serializes a model set into the persisted
// model-file JSON (sorted keys via encoding/json's map ordering, stable
// field order), so two identical model sets always encode to identical
// bytes. SaveModels writes exactly these bytes; edserve's /models
// endpoint returns them, which is what makes API-path versus batch-path
// fit parity byte-comparable.
func EncodeModels(ms *ModelSet) ([]byte, error) {
	if ms == nil {
		return nil, errors.New("core: nil model set")
	}
	mf := modelFile{Version: modelFileVersion, App: ms.App, Kernel: ms.Kernel}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: encoding models: %w", err)
	}
	return data, nil
}

// SaveModels writes a model set to a JSON file, so an expensive modeling
// campaign's results can be reused for predictions without re-profiling.
func SaveModels(path string, ms *ModelSet) error {
	data, err := EncodeModels(ms)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing models: %w", err)
	}
	return nil
}

// LoadModels reads a model set previously written by SaveModels.
func LoadModels(path string) (*ModelSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading models: %w", err)
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("core: decoding models: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("core: unsupported model-file version %d (want %d)", mf.Version, modelFileVersion)
	}
	// A null entry never reaches UnmarshalJSON, so it is rejected here.
	for p, m := range mf.App {
		if m == nil {
			return nil, fmt.Errorf("core: app model %q is null", p)
		}
	}
	for metric, byPath := range mf.Kernel {
		for p, m := range byPath {
			if m == nil {
				return nil, fmt.Errorf("core: kernel model %q/%q is null", metric, p)
			}
		}
	}
	return &ModelSet{App: mf.App, Kernel: mf.Kernel}, nil
}
