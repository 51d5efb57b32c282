package pipeline_test

import (
	"bytes"
	"context"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/core"
	"extradeep/internal/ingest"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// TestZeroConfigIsPaperDefaults pins pipeline.New as the one defaulting
// site: a zero Config produces the same report and model-file bytes as a
// Config spelling out the paper's aggregation and modeling defaults —
// what the batch CLI and the server run.
func TestZeroConfigIsPaperDefaults(t *testing.T) {
	b, err := engine.ByName("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := &profile.Store{Dir: dir}
	strat := parallel.DataParallel{}
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: strat,
			Ranks: ranks, WeakScaling: true, Seed: 11, SampleRanks: 2,
		}
		for rep := 1; rep <= 2; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if err := store.Write(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	spec := pipeline.RunSpec{
		ProfilesDir: dir,
		Format:      "json",
		Ingest:      ingest.Options{Policy: ingest.Lenient},
		Setup:       engine.SetupFunc(b, strat, true),
		Analyze:     pipeline.AnalyzeOptions{Predict: 40, CoresPerRank: 1, TopKernels: 10},
	}
	run := func(cfg pipeline.Config) (string, []byte) {
		t.Helper()
		res, err := pipeline.New(cfg).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		models, err := core.EncodeModels(res.Models)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report, models
	}
	zeroReport, zeroModels := run(pipeline.Config{})
	wantReport, wantModels := run(pipeline.Config{
		Aggregation: aggregate.DefaultOptions(),
		Modeling:    modeling.DefaultOptions(),
	})
	if zeroReport != wantReport {
		t.Errorf("zero-config report differs from the paper-default report:\n%s\n---\n%s", zeroReport, wantReport)
	}
	if !bytes.Equal(zeroModels, wantModels) {
		t.Error("zero-config model file differs from the paper-default model file")
	}
}
