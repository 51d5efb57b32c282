package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extradeep/internal/core"
	"extradeep/internal/pipeline"
	"extradeep/internal/serve"
)

// The open-loop generator sends one /predict every openLoopPeriod
// (200 req/s) from the first ready snapshot until the last upload is
// ready, and at least openLoopMin of them per lifecycle. The settled
// phase runs whole query cycles for settledTime.
const (
	openLoopPeriod = 5 * time.Millisecond
	openLoopMin    = 100
	settledTime    = time.Second
	pollInterval   = 5 * time.Millisecond
	readyTimeout   = 60 * time.Second
)

// queryRoutes are the settled phase's routes, cycled in this order by
// each closed-loop client.
var queryRoutes = []string{"predict", "speedup", "efficiency", "cost", "models", "report"}

// queryXs are the rank counts queries ask about, inside and beyond the
// measured range.
var queryXs = []string{"4", "8", "12", "16", "24", "32", "48", "64"}

// phase counts one serve phase's requests.
type phase struct{ sent, ok, failed int }

func (p *phase) merge(q phase) {
	p.sent += q.sent
	p.ok += q.ok
	p.failed += q.failed
}

func (p *phase) add(ok bool) {
	p.sent++
	if ok {
		p.ok++
	} else {
		p.failed++
	}
}

// serveStats accumulates what every lifecycle of a run measured. Times
// are scaled to the reference host (see calibrate); rawU2R keeps the
// measured upload → ready seconds for the record.
type serveStats struct {
	u2r    []float64 // upload → ready, s
	rawU2R []float64
	// u2rLife holds each lifecycle's median upload → ready. Uploads of one
	// lifecycle differ in size by plan, so a median over all of them would
	// fall between their clusters and move with the number of lifecycles.
	u2rLife  []float64
	ack      []float64 // POST round trip, ms
	predict  []float64 // open-loop latency from the scheduled send, ms; +Inf = failed
	lateness []float64 // generator lateness, ms
	route    map[string][]float64
	// Per lifecycle: open-loop p99 (ms) and settled-phase request rate.
	// The run reports their medians, so one lifecycle disturbed by the
	// host does not set the run's figure.
	predictP99 []float64
	rps        []float64
	settledReq int
	uploads    int
	// campaign holds each server campaign's stage times (traced runs).
	campaign  map[pipeline.Stage][]float64
	bodyBytes int64
	rawBytes  int64
	phases    map[string]*phase
}

func newServeStats() *serveStats {
	return &serveStats{route: map[string][]float64{}, campaign: map[pipeline.Stage][]float64{}, phases: map[string]*phase{
		"upload": {}, "poll": {}, "open-loop": {}, "settled": {}, "parity": {},
	}}
}

// campaignObserver collects the server's per-campaign stage events and
// the spool bytes each campaign's ingest is about to decode.
type campaignObserver struct {
	pipeline.Collector
	spool   string
	mu      sync.Mutex
	decoded int64
}

// StageStart implements pipeline.Observer.
func (o *campaignObserver) StageStart(s pipeline.Stage) {
	if s != pipeline.StageIngest {
		return
	}
	entries, _ := os.ReadDir(o.spool)
	var n int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && strings.HasSuffix(ent.Name(), ".json") {
			n += info.Size()
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.decoded += n
}

// client drives one server over loopback, recording a span per request.
type client struct {
	http *http.Client
	base string
	tr   *tracer
	root int
}

func (c *client) do(ctx context.Context, method, path string, body []byte, spanName string) (int, []byte, error) {
	id := c.tr.begin(spanName, c.root)
	defer c.tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// finiteSeconds reports whether a /predict body parses with finite
// seconds.
func finiteSeconds(body []byte) bool {
	var p struct {
		Seconds *float64 `json:"seconds"`
	}
	if json.Unmarshal(body, &p) != nil || p.Seconds == nil {
		return false
	}
	return !math.IsNaN(*p.Seconds) && !math.IsInf(*p.Seconds, 0)
}

// lifecycle boots a server with cmd/edserve's defaults on a fresh spool,
// uploads the campaign in the workload's plan (closed loop: each upload
// waits until ready) while an open-loop generator sends /predict, runs
// the settled phase with two closed-loop clients, and checks the final
// /models and /report against a batch run over the server's spool.
func (e *env) lifecycle(ctx context.Context, tr *tracer, obs *campaignObserver, st *serveStats) error {
	runtime.GC()
	spool, err := os.MkdirTemp(e.work, "spool-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(spool) }()
	cfg := serve.Config{SpoolDir: spool, Setup: e.setup, Analyze: analyzeOptions()}
	if obs != nil {
		obs.spool = filepath.Join(spool, e.camp.app)
		cfg.Observer = obs
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	life, stop := context.WithCancel(ctx)
	defer stop()
	if err := srv.Start(life); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer func() {
		transport.CloseIdleConnections()
		ts.Close()
		stop()
		dctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
		defer cancel()
		_ = srv.Drain(dctx)
	}()
	c := &client{http: &http.Client{Transport: transport}, base: ts.URL + "/v1/apps/" + e.camp.app, tr: tr}
	c.root = tr.begin("serve.lifecycle", 0)
	defer tr.end(c.root)
	var n0 int
	if obs != nil {
		n0 = len(obs.Stats())
	}

	first := len(st.u2r)
	scale, err := e.uploadAndWait(ctx, c, e.ups[0], st)
	if err != nil {
		return err
	}
	scales := []float64{scale}
	var done atomic.Bool
	var wg sync.WaitGroup
	var open openLoop
	wg.Add(1)
	go func() {
		defer wg.Done()
		open.run(ctx, c, &done)
	}()
	var uerr error
	for _, u := range e.ups[1:] {
		if scale, uerr = e.uploadAndWait(ctx, c, u, st); uerr != nil {
			break
		}
		scales = append(scales, scale)
	}
	done.Store(true)
	wg.Wait()
	st.u2rLife = append(st.u2rLife, median(st.u2r[first:]))
	scale = median(scales)
	for i := range open.latency {
		open.latency[i] *= scale
		open.lateness[i] *= scale
	}
	st.predict = append(st.predict, open.latency...)
	st.predictP99 = append(st.predictP99, quantile(open.latency, 0.99))
	st.lateness = append(st.lateness, open.lateness...)
	if obs != nil {
		for _, s := range obs.Stats()[n0:] {
			st.campaign[s.Stage] = append(st.campaign[s.Stage], s.Duration.Seconds()*scale)
		}
	}
	st.phases["open-loop"].merge(open.count)
	e.ops.count(open.count, "open-loop /predict")
	if uerr != nil {
		return uerr
	}

	e.settled(ctx, c, st)
	return e.parity(ctx, c, spool, st)
}

// uploadAndWait POSTs one upload and polls /status until a non-pending
// generation covers it; the interval is one upload → ready sample. It
// returns the calibration factor of that interval.
func (e *env) uploadAndWait(ctx context.Context, c *client, u upload, st *serveStats) (float64, error) {
	scaleOf := e.calibration()
	t0 := time.Now()
	status, body, err := c.do(ctx, http.MethodPost, "/profiles", u.body, "serve.upload")
	ackMS := float64(time.Since(t0)) / float64(time.Millisecond)
	ok := err == nil && status == http.StatusAccepted
	st.phases["upload"].add(ok)
	if !e.ops.check(ok, "upload answered %d %v: %.200s", status, err, body) {
		return 1, errors.New("upload refused")
	}
	var ack struct {
		SpooledFiles int `json:"spooled_files"`
	}
	if err := json.Unmarshal(body, &ack); !e.ops.op(err, "decoding the upload response") {
		return 1, err
	}
	st.uploads++
	st.bodyBytes += int64(len(u.body))
	st.rawBytes += u.raw
	for {
		status, body, err := c.do(ctx, http.MethodGet, "/status", nil, "serve.poll")
		var info struct {
			Files     int    `json:"files"`
			Ready     bool   `json:"ready"`
			Pending   bool   `json:"pending"`
			LastError string `json:"last_error"`
		}
		ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &info) == nil
		st.phases["poll"].add(ok)
		if !e.ops.check(ok, "status poll answered %d %v", status, err) {
			return 1, errors.New("status poll failed")
		}
		if !info.Pending && info.Files >= ack.SpooledFiles {
			if !e.ops.check(info.Ready && info.LastError == "", "campaign failed: %s", info.LastError) {
				return 1, errors.New(info.LastError)
			}
			sec := time.Since(t0).Seconds()
			scale := scaleOf()
			st.ack = append(st.ack, ackMS*scale)
			st.u2r = append(st.u2r, sec*scale)
			st.rawU2R = append(st.rawU2R, sec)
			return scale, nil
		}
		if time.Since(t0) > readyTimeout {
			e.ops.check(false, "upload not ready after %v", readyTimeout)
			return 1, errors.New("ready timeout")
		}
		time.Sleep(pollInterval)
	}
}

// openLoop is the /predict generator: one request every openLoopPeriod
// on a fixed schedule, each timed from when it was due.
type openLoop struct {
	latency, lateness []float64
	count             phase
}

func (o *openLoop) run(ctx context.Context, c *client, done *atomic.Bool) {
	start := time.Now()
	for k := 0; ctx.Err() == nil && !(done.Load() && k >= openLoopMin); k++ {
		due := start.Add(time.Duration(k) * openLoopPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o.lateness = append(o.lateness, float64(time.Since(due))/float64(time.Millisecond))
		status, body, err := c.do(ctx, http.MethodGet, "/predict?x="+queryXs[k%len(queryXs)], nil, "serve.predict")
		ok := err == nil && status == http.StatusOK && finiteSeconds(body)
		o.count.add(ok)
		if !ok {
			// A failed request counts as missing, never as fast.
			o.latency = append(o.latency, math.Inf(1))
			continue
		}
		o.latency = append(o.latency, float64(time.Since(due))/float64(time.Millisecond))
	}
}

// settled runs two closed-loop clients over every query route against
// the final snapshot.
func (e *env) settled(ctx context.Context, c *client, st *serveStats) {
	type result struct {
		route map[string][]float64
		count phase
	}
	var results [2]result
	var wg sync.WaitGroup
	runtime.GC()
	scaleOf := e.calibration()
	t0 := time.Now()
	for g := range results {
		wg.Add(1)
		go func(r *result, g int) {
			defer wg.Done()
			r.route = map[string][]float64{}
			for i := 0; time.Since(t0) < settledTime; i++ {
				for _, route := range queryRoutes {
					path := "/" + route
					if route != "models" && route != "report" {
						path += "?x=" + queryXs[(i+g)%len(queryXs)]
					}
					q0 := time.Now()
					status, body, err := c.do(ctx, http.MethodGet, path, nil, "serve.query."+route)
					ms := float64(time.Since(q0)) / float64(time.Millisecond)
					ok := err == nil && status == http.StatusOK && (route != "predict" || finiteSeconds(body))
					r.count.add(ok)
					if !ok {
						ms = math.Inf(1)
					}
					r.route[route] = append(r.route[route], ms)
				}
			}
		}(&results[g], g)
	}
	wg.Wait()
	sec := time.Since(t0).Seconds()
	scale := scaleOf()
	n := 0
	for _, r := range results {
		n += r.count.sent
		st.phases["settled"].merge(r.count)
		e.ops.count(r.count, "settled query")
		for route, xs := range r.route {
			for _, x := range xs {
				st.route[route] = append(st.route[route], x*scale)
			}
		}
	}
	st.settledReq += n
	st.rps = append(st.rps, float64(n)/sec/scale)
}

// parity is the server ≡ batch oracle: the final /models body must equal
// core.EncodeModels of a batch run over the server's spool, and /report
// that run's report.
func (e *env) parity(ctx context.Context, c *client, spool string, st *serveStats) error {
	id := c.tr.begin("serve.parity", c.root)
	defer c.tr.end(id)
	ms, models, err := c.do(ctx, http.MethodGet, "/models", nil, "serve.parity.models")
	rs, report, rerr := c.do(ctx, http.MethodGet, "/report", nil, "serve.parity.report")
	ok := err == nil && rerr == nil && ms == http.StatusOK && rs == http.StatusOK
	st.phases["parity"].add(ok)
	if !e.ops.check(ok, "parity queries answered %d/%d %v %v", ms, rs, err, rerr) {
		return errors.New("parity queries failed")
	}
	dir := filepath.Join(spool, e.camp.app)
	files, _ := dirStats(dir)
	if !e.ops.check(files == len(e.camp.names), "spool holds %d files, want %d", files, len(e.camp.names)) {
		return errors.New("spool incomplete")
	}
	out, err := e.batchRun(ctx, dir, nil, false, nil, "")
	if !e.ops.op(err, "batch run over the spool") {
		return err
	}
	want, err := core.EncodeModels(out.models)
	if !e.ops.op(err, "encoding the spool's models") {
		return err
	}
	e.ops.check(bytes.Equal(models, want), "server /models differs from the batch run over its spool")
	e.ops.check(string(report) == out.report, "server /report differs from the batch run over its spool")
	return nil
}
