package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/resilience"
)

// Checkpoint/resume for the fit stage. Every fit task is keyed by a
// content hash of its complete inputs (metric, callpath, series samples,
// modeling options), and each completed task is written once, as its own
// record under that key. A resumed run reuses a stored record if and
// only if recomputing it would be byte-identical — any input or
// configuration change silently misses. Records are not tied to a
// campaign: a resumed run over the same store reuses every task whose
// series and options are unchanged, so different profile sets share one
// checkpoint directory and share their common tasks.

// ckptSeries is the canonical serialization of a fit task's input series
// for key derivation: the measurement points and every repetition value,
// in sample order.
type ckptSeries struct {
	Points []measurement.Point `json:"points"`
	Reps   [][]float64         `json:"reps"`
}

// fitTaskKey derives the content key of one fit task.
func fitTaskKey(t fitTask, opts modeling.Options) (string, error) {
	cs := ckptSeries{}
	for _, sm := range t.series.Samples {
		cs.Points = append(cs.Points, sm.Point)
		cs.Reps = append(cs.Reps, sm.Reps)
	}
	seriesJSON, err := json.Marshal(cs)
	if err != nil {
		return "", fmt.Errorf("pipeline: encoding series for task key: %w", err)
	}
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("pipeline: encoding options for task key: %w", err)
	}
	app := []byte{0}
	if t.app {
		app[0] = 1
	}
	return resilience.Key(
		[]byte("fit/v1"),
		[]byte(t.metric),
		[]byte(t.path),
		app,
		seriesJSON,
		optsJSON,
	), nil
}

// ckptPlan is the fit stage's checkpoint context: the store and every
// task's content key. A plan without a store reuses nothing and records
// nothing.
type ckptPlan struct {
	store  *resilience.Store
	keys   []string // task index → content key
	resume bool
}

// newCkptPlan derives the content key of every task when a store is
// configured.
func newCkptPlan(store *resilience.Store, tasks []fitTask, opts modeling.Options, resume bool) (*ckptPlan, error) {
	plan := &ckptPlan{store: store, resume: resume}
	if store == nil {
		return plan, nil
	}
	plan.keys = make([]string, len(tasks))
	for i, t := range tasks {
		key, err := fitTaskKey(t, opts)
		if err != nil {
			return nil, err
		}
		plan.keys[i] = key
	}
	return plan, nil
}

// reuse returns the stored record for task i when resuming. Missing,
// damaged or foreign records — including records in an older layout —
// are all a miss, and a miss means a refit.
func (p *ckptPlan) reuse(i int) (taskRecord, bool) {
	if p.store == nil || !p.resume {
		return taskRecord{}, false
	}
	payload, ok := p.store.Get(p.keys[i])
	if !ok {
		return taskRecord{}, false
	}
	rec, err := decodeRecord(payload)
	if err != nil || rec.Key != p.keys[i] {
		return taskRecord{}, false
	}
	return rec, true
}

// record persists task i's completed record under its content key. Each
// fit worker writes only its own task's key, so concurrent records need
// no lock. Encode and write failures are deliberately swallowed:
// checkpointing is an optimization, never a reason to fail a run that is
// otherwise succeeding.
func (p *ckptPlan) record(i int, rec taskRecord) {
	if p.store == nil {
		return
	}
	rec.Key = p.keys[i]
	if payload, err := encodeRecord(rec); err == nil {
		_ = p.store.Put(rec.Key, payload)
	}
}

// taskRecord is one completed fit task as stored under its content key:
// the fitted model, or the failure class and reason of a task that
// produced none. Exactly one of Model and Class is set.
type taskRecord struct {
	// Key is the content hash of the task's inputs; resume matches on it,
	// so a record stored under the wrong key is never reused.
	Key    string          `json:"key"`
	Model  *modeling.Model `json:"model,omitempty"`
	Class  string          `json:"class,omitempty"`
	Reason string          `json:"reason,omitempty"`
}

// encodeRecord serializes a task record in its one canonical form
// (stable field order, the model in its persisted layout). It fails only
// for a model holding a value JSON cannot carry, such as a NaN SMAPE.
func encodeRecord(rec taskRecord) ([]byte, error) {
	return json.Marshal(rec)
}

// decodeRecord validates and decodes a task-record payload. Anything
// that is not exactly what encodeRecord writes for a keyed fitted or
// skipped task errors — unknown fields (so a record in an older layout
// or an older campaign-state file is never read as one), an empty key,
// both or neither of model and class, an unknown class, a model without
// a function, or non-canonical bytes anywhere, the model included — so
// resume never proceeds from a record it could not have written itself.
func decodeRecord(payload []byte) (taskRecord, error) {
	var rec taskRecord
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return taskRecord{}, fmt.Errorf("pipeline: decoding task record: %w", err)
	}
	if rec.Key == "" {
		return taskRecord{}, errors.New("pipeline: task record has no key")
	}
	switch {
	case rec.Model != nil && (rec.Class != "" || rec.Reason != ""):
		return taskRecord{}, fmt.Errorf("pipeline: task %s record has both a model and a failure", rec.Key)
	case rec.Model == nil && rec.Class == "":
		return taskRecord{}, fmt.Errorf("pipeline: task %s record has neither a model nor a failure class", rec.Key)
	case rec.Model == nil && rec.Class != FailurePanic && rec.Class != FailureDegraded && rec.Class != FailureUnmodelable:
		return taskRecord{}, fmt.Errorf("pipeline: task %s has unknown failure class %q", rec.Key, rec.Class)
	}
	if enc, err := encodeRecord(rec); err != nil || !bytes.Equal(enc, payload) {
		return taskRecord{}, fmt.Errorf("pipeline: task %s record is not canonically encoded", rec.Key)
	}
	return rec, nil
}
