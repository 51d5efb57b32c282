package pipeline

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

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

// TestCheckpointCrashConsistency pins "an OS crash costs a refit, never
// a wrong answer": records damaged the ways a crash or a stray process
// can leave them — a rename that landed before its data (0 bytes), a
// torn write, garbage, a lost file, a valid record under the wrong key, a
// leftover temp file — are misses.
// The resumed report is byte-identical to a storeless run, every intact
// record is reused, and every damaged task is refit and rewritten.
func TestCheckpointCrashConsistency(t *testing.T) {
	dir, setup := writeCampaign(t)
	want, _ := fitCounters(t, Config{Workers: 4}, testSpec(dir, setup))

	store := &resilience.Store{Dir: t.TempDir()}
	_, cold := fitCounters(t, Config{Workers: 4, Checkpoint: store}, testSpec(dir, setup))
	var names []string
	for name := range storeFiles(t, store.Dir) {
		names = append(names, name)
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

	got, resumed := fitCounters(t, Config{Workers: 4, Checkpoint: store, Resume: true}, testSpec(dir, setup))
	if got != want {
		t.Error("resume over damaged records diverged from a storeless run")
	}
	if resumed["reused"] != cold["tasks"]-len(damage) {
		t.Errorf("resume reused %d records, want the %d undamaged ones", resumed["reused"], cold["tasks"]-len(damage))
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
