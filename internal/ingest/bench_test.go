package ingest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// writeCifar10Campaign writes the campaign cmd/edprofile writes with its
// defaults and seed 1 — cifar10, data parallelism on DEEP, weak scaling,
// ranks 2,4,6,8,10 × 5 repetitions, 4 sampled ranks: 90 files, ~6.7 MB —
// and returns the number of bytes written.
func writeCifar10Campaign(tb testing.TB, dir string) int64 {
	tb.Helper()
	b, err := engine.ByName("cifar10")
	if err != nil {
		tb.Fatal(err)
	}
	strat, err := parallel.ByName("data")
	if err != nil {
		tb.Fatal(err)
	}
	store := &profile.Store{Dir: dir}
	for _, ranks := range []int{2, 4, 6, 8, 10} {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: strat, Ranks: ranks, WeakScaling: true,
			Granularity: engine.GranularityType, Seed: 1, SampleRanks: 4,
		}
		for rep := 1; rep <= 5; rep++ {
			profiles, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range profiles {
				if err := store.Write(p); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// BenchmarkLoadDir measures directory ingestion — read, decode, validate,
// duplicate check — over the 90-file cifar10 campaign. verify.sh's
// ingest-bench stage gates its allocs/op.
func BenchmarkLoadDir(b *testing.B) {
	dir := b.TempDir()
	b.SetBytes(writeCifar10Campaign(b, dir))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := LoadDir(dir, "json", Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Profiles) != 90 || len(rep.Quarantined) != 0 {
			b.Fatalf("loaded %d profiles, quarantined %d; want 90 and 0", len(rep.Profiles), len(rep.Quarantined))
		}
	}
}

// TestLoadDirNoAlias checks LoadDir on the cifar10 campaign against
// encoding/json file by file. LoadDir reads every file into one reused
// buffer, so a decoded profile aliasing its input would be overwritten by
// the files after it and differ here.
func TestLoadDirNoAlias(t *testing.T) {
	dir := t.TempDir()
	writeCifar10Campaign(t, dir)
	rep, err := LoadDir(dir, "json", Options{Policy: Strict})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profiles) != 90 {
		t.Fatalf("loaded %d profiles, want 90", len(rep.Profiles))
	}
	for _, p := range rep.Profiles {
		data, err := os.ReadFile(filepath.Join(dir, p.FileName()))
		if err != nil {
			t.Fatal(err)
		}
		var want profile.Profile
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, &want) {
			t.Fatalf("%s: LoadDir differs from json.Unmarshal", p.FileName())
		}
	}
}
