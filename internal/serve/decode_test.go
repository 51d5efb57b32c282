package serve_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extradeep/internal/pipeline"
	"extradeep/internal/serve"
)

// ingestDecoded returns the decoded_bytes counter of every ingest stage
// the collector saw, in campaign order.
func ingestDecoded(c *pipeline.Collector) []int {
	var out []int
	for _, s := range c.Stats() {
		if s.Stage == pipeline.StageIngest {
			out = append(out, s.Counters["decoded_bytes"])
		}
	}
	return out
}

// spoolBytes sums the sizes of the application's spooled files.
func spoolBytes(tb testing.TB, dir string) int {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		n += int(info.Size())
	}
	return n
}

// TestServeCampaignsDecodeOnce: campaigns ingest the profiles decoded at
// admission instead of re-reading the spool. A server's campaigns decode
// no spool bytes; after a restart, the first campaign decodes the spool
// exactly once and every later campaign decodes none.
func TestServeCampaignsDecodeOnce(t *testing.T) {
	spool := t.TempDir()
	base := makeCampaign(t, defaultRanks, 2, 41)
	rep1, rep2 := map[string]string{}, map[string]string{}
	for name, c := range base {
		if strings.HasSuffix(name, ".r1.json") {
			rep1[name] = c
		} else {
			rep2[name] = c
		}
	}

	seen := &pipeline.Collector{}
	first := startServer(t, serve.Config{SpoolDir: spool, Observer: seen})
	first.mustUpload(t, testApp, contentsOf(rep1))
	first.settle(t, testApp)
	first.mustUpload(t, testApp, contentsOf(rep2))
	first.settle(t, testApp)
	for i, n := range ingestDecoded(seen) {
		if n != 0 {
			t.Errorf("campaign %d decoded %d spool bytes, want 0", i+1, n)
		}
	}
	first.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	size := spoolBytes(t, filepath.Join(spool, testApp))
	restarted := &pipeline.Collector{}
	second := startServer(t, serve.Config{SpoolDir: spool, Observer: restarted})
	second.settle(t, testApp)
	second.mustUpload(t, testApp, contentsOf(makeCampaign(t, []int{12}, 1, 41)))
	second.settle(t, testApp)
	got := ingestDecoded(restarted)
	if len(got) < 2 {
		t.Fatalf("restarted server ran %d campaigns, want at least 2", len(got))
	}
	if got[0] != size {
		t.Errorf("first campaign after the restart decoded %d bytes, want the spool's %d", got[0], size)
	}
	for i, n := range got[1:] {
		if n != 0 {
			t.Errorf("campaign %d after the restart decoded %d spool bytes, want 0", i+2, n)
		}
	}
}
