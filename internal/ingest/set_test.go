package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"extradeep/internal/faults"
	"extradeep/internal/profile"
)

// dirBytes sums the sizes of dir's files.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestSetAddMatchesLoadDir: a set built by adding decoded profiles one at
// a time, in any name order, reports exactly what LoadDir reports for
// the same files on disk — including a later-named duplicate, which is
// quarantined whichever file was added first.
func TestSetAddMatchesLoadDir(t *testing.T) {
	dir, names := writeCampaign(t, "json")
	dup, err := faults.CorruptFile(filepath.Join(dir, names[3]), faults.DuplicateRankRep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Quarantined) != 1 || want.Quarantined[0].Path != dup {
		t.Fatalf("LoadDir quarantined %v, want only %s", want.Quarantined, dup)
	}

	set := NewSet(dir, "json")
	var dec profile.Decoder
	all := append([]string{filepath.Base(dup)}, names...)
	for i := len(all) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, all[i]))
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := Decode(&dec, data, "json")
		if err != nil {
			t.Fatal(err)
		}
		set.Add(all[i], p)
	}
	got, err := set.Report(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("set report differs from LoadDir:\n got %+v\nwant %+v", got, want)
	}
	if set.Decoded() != 0 {
		t.Errorf("a set built by Add decoded %d bytes, want 0", set.Decoded())
	}
}

// TestLoadSetCountsAndClones: LoadSet counts every byte it decodes,
// quarantines failed files as LoadDir does, and a clone reports the same
// while counting no decoded bytes and not sharing entries with the
// original.
func TestLoadSetCountsAndClones(t *testing.T) {
	dir, names := writeCampaign(t, "json")
	bad, err := faults.CorruptFile(filepath.Join(dir, names[0]), faults.Truncate)
	if err != nil {
		t.Fatal(err)
	}
	set, err := LoadSet(dir, "json", new(profile.Decoder))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := set.Decoded(), dirBytes(t, dir); got != want {
		t.Errorf("Decoded = %d, want the directory's %d bytes", got, want)
	}
	want, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := set.Clone()
	if c.Decoded() != 0 {
		t.Errorf("clone Decoded = %d, want 0", c.Decoded())
	}
	for _, s := range []*Set{set, c} {
		got, err := s.Report(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report differs from LoadDir:\n got %+v\nwant %+v", got, want)
		}
	}
	if len(want.Quarantined) != 1 || want.Quarantined[0].Path != bad || want.Quarantined[0].Stage != StageDecode {
		t.Fatalf("quarantined %v, want %s at decode", want.Quarantined, bad)
	}

	// Replacing the bad entry in the clone leaves the original alone.
	p := fixtureProfile(2, 0, 1)
	c.Add(filepath.Base(bad), p)
	if rep, _ := c.Report(Options{}); len(rep.Quarantined) != 0 {
		t.Errorf("clone still quarantines %v after the replacement", rep.Quarantined)
	}
	if rep, _ := set.Report(Options{}); len(rep.Quarantined) != 1 {
		t.Errorf("replacing a clone entry changed the original: %v", rep.Quarantined)
	}

	// Under Strict the first quarantine in name order is the error.
	if _, err := set.Report(Options{Policy: Strict}); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("strict report error %v does not name %s", err, bad)
	}
}
