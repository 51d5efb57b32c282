package core

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"extradeep/internal/epoch"
	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
)

var update = flag.Bool("update", false, "rewrite testdata/models.golden from current EncodeModels output")

// goldenModelSet is a hand-built model set covering every shape of the
// persisted model layout: an application and a kernel model, an
// undefined (null) R², and a two-parameter term with a log factor.
func goldenModelSet() *ModelSet {
	return &ModelSet{
		App: map[string]*modeling.Model{
			epoch.AppPath: {
				Function: &pmnf.Function{
					Constant:   1.5,
					Terms:      []pmnf.Term{{Coefficient: 0.25, Factors: []pmnf.Factor{{Param: 0, PolyExp: 0.5, LogExp: 1}}}},
					ParamNames: []string{"p"},
				},
				SMAPE:          2.125,
				RSS:            0.0625,
				R2:             0.96875,
				RelResidualStd: 0.01,
				Points:         []measurement.Point{{2}, {4}, {8}, {16}, {32}},
				Actual:         []float64{1.85, 2.0, 2.56, 3.5, 4.33},
			},
		},
		Kernel: map[measurement.Metric]map[string]*modeling.Model{
			measurement.MetricTime: {
				"train/conv1": {
					Function: &pmnf.Function{
						Constant: 3,
						Terms: []pmnf.Term{{Coefficient: 1e-3, Factors: []pmnf.Factor{
							{Param: 0, PolyExp: 1, LogExp: 0},
							{Param: 1, PolyExp: 2.0 / 3, LogExp: 2},
						}}},
						ParamNames: []string{"p", "b"},
					},
					SMAPE:          0,
					RSS:            0,
					R2:             math.NaN(),
					RelResidualStd: 0,
					Points:         []measurement.Point{{2, 64}, {4, 128}},
					Actual:         []float64{3, 3},
				},
			},
		},
	}
}

// TestEncodeModelsGolden pins the persisted model-file bytes that
// -save-models writes and edserve's /models returns.
func TestEncodeModelsGolden(t *testing.T) {
	got, err := EncodeModels(goldenModelSet())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "models.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeModels bytes differ from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	res, err := RunCampaign(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "models.json")
	if err := SaveModels(path, res.Models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(path)
	if err != nil {
		t.Fatal(err)
	}
	// Application models predict identically after the round trip.
	for p, orig := range res.Models.App {
		got := loaded.App[p]
		if got == nil {
			t.Fatalf("app model %q lost", p)
		}
		for _, x := range []float64{2, 10, 64, 128} {
			a, b := orig.Predict(x), got.Predict(x)
			if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
				t.Fatalf("%q at %v: %v vs %v", p, x, a, b)
			}
		}
		//edlint:ignore floateq persistence round-trip must be lossless, so exact equality is the property under test
		if got.SMAPE != orig.SMAPE || got.R2 != orig.R2 {
			t.Errorf("%q: quality stats lost", p)
		}
	}
	// Kernel model counts survive.
	if loaded.KernelCount() != res.Models.KernelCount() {
		t.Errorf("kernel models: %d vs %d", loaded.KernelCount(), res.Models.KernelCount())
	}
	// Confidence intervals still work (need Points + RelResidualStd).
	app := loaded.App[epoch.AppPath]
	lo, hi := app.PredictInterval(0.95, 64)
	olo, ohi := res.Models.App[epoch.AppPath].PredictInterval(0.95, 64)
	if math.Abs(lo-olo) > 1e-9 || math.Abs(hi-ohi) > 1e-9 {
		t.Errorf("CI changed: [%v,%v] vs [%v,%v]", lo, hi, olo, ohi)
	}
}

func TestSaveModelsNil(t *testing.T) {
	if err := SaveModels(filepath.Join(t.TempDir(), "m.json"), nil); err == nil {
		t.Error("nil model set accepted")
	}
}

func TestSaveModelsErrors(t *testing.T) {
	bad := goldenModelSet()
	bad.App[epoch.AppPath].SMAPE = math.NaN()
	if err := SaveModels(filepath.Join(t.TempDir(), "nan.json"), bad); err == nil {
		t.Error("model with a NaN SMAPE encoded")
	}
	if err := SaveModels(filepath.Join(t.TempDir(), "absent", "m.json"), goldenModelSet()); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func TestLoadModelsMissingFile(t *testing.T) {
	if _, err := LoadModels(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadModelsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(path); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestLoadModelsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v99.json")
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(path); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestLoadModelsMissingFunction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nofn.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"app":{"App":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModels(path); err == nil {
		t.Error("model without function accepted")
	}
}

func TestLoadModelsNullModel(t *testing.T) {
	for name, body := range map[string]string{
		"app":    `{"version":1,"app":{"App":null}}`,
		"kernel": `{"version":1,"kernel":{"time":{"k":null}}}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModels(path); err == nil {
			t.Errorf("null %s model accepted", name)
		}
	}
}

func TestSavedModelJSONShape(t *testing.T) {
	// The multi-parameter grid model also round-trips (factors carry
	// parameter indices).
	res, err := RunGridCampaign(testGridCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := SaveModels(path, res.Models); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Models.App[epoch.AppPath]
	got := loaded.App[epoch.AppPath]
	pt := measurement.Point{16, 128}
	if math.Abs(orig.Function.EvalAt(pt)-got.Function.EvalAt(pt)) > 1e-12 {
		t.Error("grid model changed by round trip")
	}
}
