package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
	"extradeep/internal/propcheck"
	"extradeep/internal/resilience"
)

// fitCounters runs the pipeline over the test campaign and returns the
// report with the fit stage's counters.
func fitCounters(t *testing.T, cfg Config, spec RunSpec) (string, Counters) {
	t.Helper()
	col := &Collector{}
	cfg.Observer = col
	res, err := New(cfg).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var fit Counters
	for _, s := range col.Stats() {
		if s.Stage == StageFit {
			fit = s.Counters
		}
	}
	return res.Report, fit
}

// storeFiles lists the store directory: file name → modification time.
func storeFiles(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]time.Time, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = info.ModTime()
	}
	return files
}

// TestCheckpointWriteOnce guards against the per-task rewrite of a whole
// campaign file coming back: a cold run leaves exactly one record per
// fit task, and a full resume over that store creates, renames and
// rewrites nothing.
func TestCheckpointWriteOnce(t *testing.T) {
	dir, setup := writeCampaign(t)
	store := &resilience.Store{Dir: t.TempDir()}
	_, cold := fitCounters(t, Config{Workers: 4, Checkpoint: store}, testSpec(dir, setup))
	files := storeFiles(t, store.Dir)
	if len(files) != cold["tasks"] {
		t.Fatalf("cold run left %d files for %d fit tasks", len(files), cold["tasks"])
	}
	// Backdate every record, so a rewrite shows as a fresh mtime however
	// coarse the filesystem's timestamps are.
	old := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	for name := range files {
		if strings.HasPrefix(name, ".tmp-") {
			t.Fatalf("cold run left temp file %s", name)
		}
		if err := os.Chtimes(filepath.Join(store.Dir, name), old, old); err != nil {
			t.Fatal(err)
		}
	}

	_, resumed := fitCounters(t, Config{Workers: 4, Checkpoint: store, Resume: true}, testSpec(dir, setup))
	if resumed["reused"] != cold["tasks"] {
		t.Fatalf("resume reused %d of %d tasks", resumed["reused"], cold["tasks"])
	}
	after := storeFiles(t, store.Dir)
	if len(after) != len(files) {
		t.Fatalf("resume changed the store listing: %d files, want %d", len(after), len(files))
	}
	for name := range files {
		mtime, ok := after[name]
		if !ok {
			t.Fatalf("resume removed %s", name)
		}
		if !mtime.Equal(old) {
			t.Fatalf("resume rewrote %s", name)
		}
	}
}

// legacyRecordKey is the live key of the test campaign's application
// task. testdata/legacy-record.ckpt holds that task's record exactly as
// the previous record codec wrote it: the model JSON base64-encoded into
// a "payload" next to a "name" and a "status".
const legacyRecordKey = "9f329d60de856dd38fc1b77d03efea9ae91d7137177a8a13c1ff0c29ddf9bd6a"

// TestCheckpointCrashConsistency pins "an OS crash costs a refit, never
// a wrong answer": records damaged the ways a crash or a stray process
// can leave them — a rename that landed before its data (0 bytes), a
// torn write, garbage, a lost file, a valid record under the wrong key, a
// leftover temp file — are misses, and so is a record in the pre-change
// layout under its live key.
// The resumed report is byte-identical to a storeless run, every intact
// record is reused, and every damaged task is refit and rewritten.
func TestCheckpointCrashConsistency(t *testing.T) {
	dir, setup := writeCampaign(t)
	want, _ := fitCounters(t, Config{Workers: 4}, testSpec(dir, setup))

	store := &resilience.Store{Dir: t.TempDir()}
	_, cold := fitCounters(t, Config{Workers: 4, Checkpoint: store}, testSpec(dir, setup))
	legacyName := legacyRecordKey + ".ckpt"
	var names []string
	for name := range storeFiles(t, store.Dir) {
		if name != legacyName {
			names = append(names, name)
		}
	}
	if len(names) != cold["tasks"]-1 {
		t.Fatalf("no fit task has the key of testdata/legacy-record.ckpt (%s)", legacyRecordKey)
	}
	sort.Strings(names)
	damage := map[string]func(path string, data []byte) error{
		"truncated to 0 bytes": func(path string, _ []byte) error { return os.WriteFile(path, nil, 0o644) },
		"truncated mid-payload": func(path string, data []byte) error {
			return os.WriteFile(path, data[:len(data)*2/3], 0o644)
		},
		"garbage": func(path string, data []byte) error {
			return os.WriteFile(path, []byte(strings.Repeat("\x00garbage", 16)), 0o644)
		},
		"deleted": func(path string, _ []byte) error { return os.Remove(path) },
		"another task's record": func(path string, _ []byte) error {
			other, err := os.ReadFile(filepath.Join(store.Dir, names[len(names)-1]))
			if err != nil {
				return err
			}
			return os.WriteFile(path, other, 0o644)
		},
	}
	kinds := make([]string, 0, len(damage))
	for kind := range damage {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	original := make(map[string][]byte, len(kinds))
	for i, kind := range kinds {
		path := filepath.Join(store.Dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		original[names[i]] = data
		if err := damage[kind](path, data); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	stray := filepath.Join(store.Dir, ".tmp-"+names[len(names)-1][:8]+"-1")
	if err := os.WriteFile(stray, []byte("edckpt v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-record.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	legacyPath := filepath.Join(store.Dir, legacyName)
	if original[legacyName], err = os.ReadFile(legacyPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(original[legacyName], []byte(`"model":{`)) {
		t.Fatalf("cold run did not store the model inline: %q", original[legacyName])
	}
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	got, resumed := fitCounters(t, Config{Workers: 4, Checkpoint: store, Resume: true}, testSpec(dir, setup))
	if got != want {
		t.Error("resume over damaged records diverged from a storeless run")
	}
	if resumed["reused"] != cold["tasks"]-len(original) {
		t.Errorf("resume reused %d records, want the %d undamaged ones", resumed["reused"], cold["tasks"]-len(original))
	}
	for name, data := range original {
		rewritten, err := os.ReadFile(filepath.Join(store.Dir, name))
		if err != nil {
			t.Fatalf("damaged record %s was not rewritten: %v", name, err)
		}
		if string(rewritten) != string(data) {
			t.Errorf("record %s was rewritten with different bytes", name)
		}
	}
}

// TestCheckpointReuseAcrossCampaigns: records belong to tasks, not to
// campaigns, so a run whose fit-task set differs from the stored run's
// reuses exactly the tasks the two share — in either direction — and
// stays byte-identical to a storeless run. Raising MinConfigurations
// past the campaign's five configurations filters every kernel series
// and leaves the four application tasks, which the default run shares.
func TestCheckpointReuseAcrossCampaigns(t *testing.T) {
	dir, setup := writeCampaign(t)
	full := Config{Workers: 4}
	apps := Config{Workers: 4, MinConfigurations: 6}
	for _, tc := range []struct {
		name          string
		stored, rerun Config
	}{
		{"superset stored", full, apps},
		{"subset stored", apps, full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &resilience.Store{Dir: t.TempDir()}
			stored := tc.stored
			stored.Checkpoint = store
			_, first := fitCounters(t, stored, testSpec(dir, setup))

			want, _ := fitCounters(t, tc.rerun, testSpec(dir, setup))
			rerun := tc.rerun
			rerun.Checkpoint, rerun.Resume = store, true
			got, second := fitCounters(t, rerun, testSpec(dir, setup))
			if got != want {
				t.Error("cross-campaign resume diverged from a storeless run")
			}
			shared := min(first["tasks"], second["tasks"])
			if first["tasks"] == second["tasks"] || shared == 0 {
				t.Fatalf("task sets %d and %d do not differ while sharing tasks", first["tasks"], second["tasks"])
			}
			if second["reused"] != shared {
				t.Errorf("rerun reused %d tasks, want the %d shared ones", second["reused"], shared)
			}
			if n := len(storeFiles(t, store.Dir)); n != max(first["tasks"], second["tasks"]) {
				t.Errorf("store holds %d records, want one per distinct task (%d)", n, max(first["tasks"], second["tasks"]))
			}
		})
	}
}

// sampleModel is a fitted model with an undefined R² and a two-parameter
// term with a log factor.
func sampleModel() *modeling.Model {
	return &modeling.Model{
		Function: &pmnf.Function{
			Constant: 3,
			Terms: []pmnf.Term{{Coefficient: 1e-3, Factors: []pmnf.Factor{
				{Param: 0, PolyExp: 1},
				{Param: 1, PolyExp: 2.0 / 3, LogExp: 2},
			}}},
			ParamNames: []string{"p", "b"},
		},
		R2:     math.NaN(),
		Points: []measurement.Point{{2, 64}, {4, 128}},
		Actual: []float64{3, 3},
	}
}

// legacyStatePayload is a campaign-state payload as older versions wrote
// it: the whole campaign in one file, rewritten after every task. Nothing
// reads these any more; they must never decode as a task record.
const legacyStatePayload = `{
 "version": 1,
 "campaign": "ca9c222019ef30e69814ecab344dbb8140f4bf963ab0f28e497109ddf58803f7",
 "aggregates": "WzFd",
 "tasks": [
  {
   "key": "5cf810eb7838502cc8a6691fffce3a8a0e49496ef255c78d00cc8598278efd49",
   "name": "time kern/a",
   "status": "fitted",
   "payload": "eyJmIjoicF4xIn0="
  }
 ]
}`

func TestDecodeRecordValidates(t *testing.T) {
	m := sampleModel()
	m.R2 = 0.5
	for _, valid := range []taskRecord{
		{Key: "a", Class: FailurePanic, Reason: "boom"},
		{Key: "a", Class: FailureUnmodelable},
		{Key: "a", Model: m},
	} {
		enc, err := encodeRecord(valid)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeRecord(enc); err != nil || !reflect.DeepEqual(got, valid) {
			t.Fatalf("valid record %s: got %+v, %v", enc, got, err)
		}
	}
	fitted, err := encodeRecord(taskRecord{Key: "a", Model: m})
	if err != nil {
		t.Fatal(err)
	}
	model := strings.TrimSuffix(strings.TrimPrefix(string(fitted), `{"key":"a","model":`), "}")
	for name, payload := range map[string]string{
		"empty key":              `{"key":"","class":"panic"}`,
		"unknown class":          `{"key":"a","class":"maybe"}`,
		"unknown field":          `{"key":"a","class":"panic","campaign":"c"}`,
		"non-canonical":          `{"key":"a", "class":"panic"}`,
		"trailing bytes":         `{"key":"a","class":"panic"}{}`,
		"not json":               `not json`,
		"campaign state":         legacyStatePayload,
		"neither":                `{"key":"a"}`,
		"empty class":            `{"key":"a","class":""}`,
		"null model":             `{"key":"a","model":null}`,
		"wrong key case":         `{"KEY":"a","class":"panic"}`,
		"unescaped html":         `{"key":"<","class":"panic"}`,
		"model and class":        `{"key":"a","model":` + model + `,"class":"panic"}`,
		"model and reason":       `{"key":"a","model":` + model + `,"reason":"boom"}`,
		"model without function": `{"key":"a","model":{"smape":0,"rss":0,"r2":null,"rel_residual_std":0,"points":null,"actual":null}}`,
		"unknown model field":    `{"key":"a","model":` + strings.Replace(model, `"smape":`, `"extra":1,"smape":`, 1) + `}`,
		"non-canonical model":    `{"key":"a","model":` + strings.Replace(model, `"Constant":3`, `"Constant":3.0`, 1) + `}`,
		"pre-change layout":      `{"key":"a","name":"t0","status":"fitted","payload":"e30="}`,
	} {
		if rec, err := decodeRecord([]byte(payload)); err == nil {
			t.Errorf("%s: decoded to %+v", name, rec)
		}
	}
}

// genRecord generates arbitrary well-formed task records: fitted models
// of one or two parameters, with and without a defined R², or skips of
// every failure class.
func genRecord() propcheck.Gen[taskRecord] {
	return propcheck.Gen[taskRecord]{
		Generate: func(r *propcheck.Rand) taskRecord {
			rec := taskRecord{Key: fmt.Sprintf("%064x", r.Int64Range(0, 1<<50))}
			if r.Bool() {
				rec.Class = []string{FailurePanic, FailureDegraded, FailureUnmodelable}[r.Intn(3)]
				rec.Reason = "injected failure"
				return rec
			}
			params := r.IntRange(1, 2)
			fn := &pmnf.Function{Constant: r.NormFloat64()}
			for range r.Intn(3) {
				term := pmnf.Term{Coefficient: r.NormFloat64()}
				for p := range params {
					term.Factors = append(term.Factors, pmnf.Factor{Param: p, PolyExp: float64(r.Intn(12)) / 4, LogExp: r.Intn(3)})
				}
				fn.Terms = append(fn.Terms, term)
			}
			m := &modeling.Model{
				Function:       fn,
				SMAPE:          r.Float64Range(0, 100),
				RSS:            r.Float64(),
				R2:             math.NaN(),
				RelResidualStd: r.Float64(),
			}
			if r.Bool() {
				m.R2 = r.Float64()
			}
			for range r.IntRange(1, 6) {
				pt := make(measurement.Point, params)
				for p := range pt {
					pt[p] = float64(r.IntRange(1, 64))
				}
				m.Points = append(m.Points, pt)
				m.Actual = append(m.Actual, r.Float64Range(0, 1e3))
			}
			rec.Model = m
			return rec
		},
		Describe: func(rec taskRecord) string {
			if rec.Model != nil {
				return fmt.Sprintf("key=%s model=%s", rec.Key, rec.Model.Function)
			}
			return fmt.Sprintf("key=%s class=%s", rec.Key, rec.Class)
		},
	}
}

// TestPropCheckpointRoundTrip is the record codec's core property:
// encode → decode → encode is byte-identical for arbitrary task records,
// an intact record loads through the store unchanged, and a truncated or
// bit-flipped record file is always detected and recovered to a miss,
// never a partial resume.
func TestPropCheckpointRoundTrip(t *testing.T) {
	propcheck.Check(t, genRecord(), func(rec taskRecord) error {
		enc1, err := encodeRecord(rec)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		dec, err := decodeRecord(enc1)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if enc2, err := encodeRecord(dec); err != nil || !bytes.Equal(enc1, enc2) {
			return errors.New("encode→decode→encode not byte-identical")
		}
		// Damage detection: truncate the stored file to nothing, a third
		// and two-thirds, and flip one payload bit; each must recover to a
		// miss through the store.
		s := &resilience.Store{Dir: t.TempDir()}
		if err := s.Put(rec.Key, enc1); err != nil {
			return err
		}
		if payload, ok := s.Get(rec.Key); !ok || !bytes.Equal(payload, enc1) {
			return errors.New("intact record did not load through the store")
		}
		file := filepath.Join(s.Dir, rec.Key+".ckpt")
		stored, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for i, damage := range [][]byte{
			nil,
			stored[:len(stored)/3],
			stored[:2*len(stored)/3],
			flipBit(stored, len(stored)-1),
		} {
			if err := os.WriteFile(file, damage, 0o644); err != nil {
				return err
			}
			if _, ok := s.Get(rec.Key); ok {
				return fmt.Errorf("damaged record %d loaded", i)
			}
		}
		return nil
	})
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x10
	return out
}
