package serve_test

// Shared fixtures for the edserve protocol harness: deterministic
// simulated measurement campaigns (via the internal/simulator engine),
// an in-process server + httptest client, and the batch-pipeline
// reference path the parity properties compare against.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"extradeep/internal/core"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
	"extradeep/internal/serve"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

const testApp = "imdb"

// testSetup returns the training-setup function every harness server and
// reference pipeline shares (imdb benchmark, data-parallel weak scaling
// — the writeCampaign fixture of the pipeline tests).
func testSetup(tb testing.TB) epoch.SetupFunc {
	tb.Helper()
	b, err := engine.ByName(testApp)
	if err != nil {
		tb.Fatal(err)
	}
	return engine.SetupFunc(b, parallel.DataParallel{}, true)
}

// makeCampaign simulates one weak-scaling measurement campaign and
// returns the profile files as upload-ready JSON documents, keyed by
// canonical file name. Deterministic in (ranks, reps, seed).
func makeCampaign(tb testing.TB, ranks []int, reps int, seed int64) map[string]string {
	tb.Helper()
	b, err := engine.ByName(testApp)
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string]string{}
	for _, r := range ranks {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: r, WeakScaling: true, Seed: seed, SampleRanks: 1,
		}
		for rep := 1; rep <= reps; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range ps {
				data, err := json.Marshal(p)
				if err != nil {
					tb.Fatal(err)
				}
				files[p.FileName()] = string(data)
			}
		}
	}
	return files
}

// defaultRanks is the standard modelable campaign extent (5 distinct
// configurations, the degradation gate's minimum).
var defaultRanks = []int{2, 4, 6, 8, 10}

// testServer wraps a started serve.Server with its HTTP front end.
type testServer struct {
	srv   *serve.Server
	ts    *httptest.Server
	spool string
	// stop cancels the server's lifecycle context (shutdown tests kill
	// the first instance mid-test; Cleanup makes the call idempotent).
	stop context.CancelFunc
}

// startServer builds, starts and exposes a server over httptest. Zero
// Config fields get harness defaults (fresh spool dir, shared setup).
// Cleanup cancels the lifecycle, drains fits and closes the listener.
func startServer(tb testing.TB, cfg serve.Config) *testServer {
	tb.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = tb.TempDir()
	}
	if cfg.Setup == nil {
		cfg.Setup = testSetup(tb)
	}
	if cfg.Analyze == (pipeline.AnalyzeOptions{}) {
		cfg.Analyze = pipeline.AnalyzeOptions{CoresPerRank: 1, TopKernels: 10}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := srv.Start(ctx); err != nil {
		cancel()
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() {
		ts.Close()
		cancel()
		drainCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
		defer done()
		_ = srv.Drain(drainCtx)
	})
	return &testServer{srv: srv, ts: ts, spool: cfg.SpoolDir, stop: cancel}
}

// envelope builds the upload request body for a set of file contents.
func envelope(format string, contents []string) []byte {
	type f struct {
		Content string `json:"content"`
	}
	req := struct {
		Format   string `json:"format"`
		Profiles []f    `json:"profiles"`
	}{Format: format}
	for _, c := range contents {
		req.Profiles = append(req.Profiles, f{Content: c})
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}

// do issues one request and returns status + body.
func (s *testServer) do(tb testing.TB, method, path string, body []byte) (int, []byte) {
	tb.Helper()
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, out
}

// upload POSTs a batch of profile documents and returns status + body.
func (s *testServer) upload(tb testing.TB, app, format string, contents []string) (int, []byte) {
	tb.Helper()
	return s.do(tb, http.MethodPost, "/v1/apps/"+app+"/profiles", envelope(format, contents))
}

// mustUpload is upload asserting the 202 happy path.
func (s *testServer) mustUpload(tb testing.TB, app string, contents []string) {
	tb.Helper()
	status, body := s.upload(tb, app, "json", contents)
	if status != http.StatusAccepted {
		tb.Fatalf("upload: status %d, body %s", status, body)
	}
}

// settle waits until the application has no pending fit work and
// requires the last campaign to have succeeded with a snapshot.
func (s *testServer) settle(tb testing.TB, app string) *serve.Snapshot {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	snap, err := s.srv.Settle(ctx, app)
	if err != nil {
		tb.Fatalf("settle %s: %v", app, err)
	}
	if snap == nil {
		tb.Fatalf("settle %s: no snapshot published", app)
	}
	return snap
}

// models GETs the fitted model file bytes (the fit-parity anchor).
func (s *testServer) models(tb testing.TB, app string) []byte {
	tb.Helper()
	status, body := s.do(tb, http.MethodGet, "/v1/apps/"+app+"/models", nil)
	if status != http.StatusOK {
		tb.Fatalf("models: status %d, body %s", status, body)
	}
	return body
}

// contentsOf flattens a campaign file map into a deterministic
// (name-sorted) content slice for single-batch uploads.
func contentsOf(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = files[n]
	}
	return out
}

// batchModels runs the batch pipeline — option-for-option what the
// extradeep CLI executes — over a directory of profile files and returns
// the canonical encoded model set. This is the reference side of the
// API-versus-batch parity properties.
func batchModels(tb testing.TB, dir string, workers int) []byte {
	tb.Helper()
	pl := pipeline.New(pipeline.Config{Workers: workers})
	res, err := pl.Run(context.Background(), pipeline.RunSpec{
		ProfilesDir: dir,
		Format:      "json",
		Ingest:      ingest.Options{Policy: ingest.Lenient},
		Setup:       testSetup(tb),
		Analyze:     pipeline.AnalyzeOptions{CoresPerRank: 1, TopKernels: 10},
	})
	if err != nil {
		tb.Fatalf("batch pipeline over %s: %v", dir, err)
	}
	data, err := core.EncodeModels(res.Models)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// writeProfilesDir materializes campaign files into a fresh directory
// (the way a batch CLI user would lay them out) and returns it.
func writeProfilesDir(tb testing.TB, files map[string]string) string {
	tb.Helper()
	dir := tb.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// decodeJSON unmarshals a response body, failing the test on error.
func decodeJSON(tb testing.TB, body []byte, v any) {
	tb.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		tb.Fatalf("decoding %s: %v", body, err)
	}
}

// errorCode extracts error.code from a refusal body.
func errorCode(tb testing.TB, body []byte) string {
	tb.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	decodeJSON(tb, body, &e)
	return e.Error.Code
}
