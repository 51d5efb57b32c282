// Command perfbench is the repository's benchmark of record. It
// generates a seeded cifar10 profile campaign in-process and drives the
// system only through its public entry points: the batch pipeline with
// the call sequence and configuration of cmd/extradeep, and the modeling
// service (serve.New + Handler behind a loopback listener) with the
// defaults of cmd/edserve. It checks every output, prints each metric by
// name with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a traced run reports the per-layer ones and writes its
// spans to -spans. BENCHMARK.json at the repository root lists both sets
// and maps each layer metric to the end-to-end metric it should move.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench -workload batch-cifar10 -seed 1 -seconds 20 -trace 0 -work DIR [-spans FILE]
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"extradeep/internal/core"
	"extradeep/internal/epoch"
	"extradeep/internal/pipeline"
	"extradeep/internal/serve"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/parallel"
)

// setupReps is how many times a run generates the campaign and boots a
// server; setup_s is their median.
const setupReps = 15

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatchesMetrics).
type metricSpec struct{ name, unit, better string }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_p50_s", "s", "lower"},
	{"resume_p50_s", "s", "lower"},
	{"alloc_mb_per_run", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"upload_to_ready_p50_s", "s", "lower"},
	{"predict_p50_ms", "ms", "lower"},
}

// printedOnly are end-to-end metrics the untraced run prints but keeps
// out of its result line, so they gate nothing: a 30 s run leaves fewer
// than ten samples beyond each tail percentile, and on a shared 2-vCPU
// host these four spread across seeds by up to 0.2–0.9 of their median,
// near or past the largest bound BENCHMARK.json may set.
var printedOnly = []metricSpec{
	{"run_p90_s", "s", "lower"},
	{"upload_to_ready_p90_s", "s", "lower"},
	{"predict_p99_ms", "ms", "lower"},
	{"query_rps", "1/s", "higher"},
}

var perLayer = []metricSpec{
	{"ingest.s", "s", "lower"},
	{"ingest.read_s", "s", "lower"},
	{"ingest.decode_mb_per_s", "MB/s", "higher"},
	{"ingest.alloc_mb", "MB", "lower"},
	{"ingest.files", "count", "lower"},
	{"ingest.mb", "MB", "lower"},
	{"aggregate.s", "s", "lower"},
	{"aggregate.alloc_mb", "MB", "lower"},
	{"epoch.s", "s", "lower"},
	{"fit.s", "s", "lower"},
	{"fit.tasks", "count", "lower"},
	{"fit.alloc_mb", "MB", "lower"},
	{"checkpoint.write_s", "s", "lower"},
	{"checkpoint.store_kb", "KB", "lower"},
	{"checkpoint.files", "count", "lower"},
	{"checkpoint.resume_s", "s", "lower"},
	{"checkpoint.reuse_frac", "ratio", "higher"},
	{"analyze.s", "s", "lower"},
	{"report.s", "s", "lower"},
	{"report.bytes", "bytes", "lower"},
	{"serve.upload_ack_ms", "ms", "lower"},
	{"serve.envelope_ratio", "ratio", "lower"},
	{"serve.redecode_ratio", "ratio", "lower"},
	{"serve.campaigns_per_upload", "ratio", "lower"},
	{"serve.campaign.ingest_s", "s", "lower"},
	{"serve.campaign.aggregate_s", "s", "lower"},
	{"serve.campaign.fit_s", "s", "lower"},
	{"serve.route_p50_ms.predict", "ms", "lower"},
	{"serve.route_p50_ms.speedup", "ms", "lower"},
	{"serve.route_p50_ms.efficiency", "ms", "lower"},
	{"serve.route_p50_ms.cost", "ms", "lower"},
	{"serve.route_p50_ms.models", "ms", "lower"},
	{"serve.route_p50_ms.report", "ms", "lower"},
	{"serve.gen_lateness_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// layers are the batch layers whose self time a traced run reports, in
// pipeline order.
var layers = []string{"ingest", "aggregate", "epoch", "fit", "analyze", "report"}

// tally counts operations and checks; a failed one is noted on stderr.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	w                 io.Writer
}

// check counts one check and reports ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.mu.Lock()
		defer t.mu.Unlock()
		sayf(t.w, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// op counts one operation that failed when err is non-nil.
func (t *tally) op(err error, what string) bool {
	if err == nil {
		t.attempted.Add(1)
		return true
	}
	return t.check(false, "%s: %v", what, err)
}

// count adds a phase's requests.
func (t *tally) count(p phase, what string) {
	t.attempted.Add(int64(p.ok))
	for range p.failed {
		t.check(false, "%s failed", what)
	}
}

// env is one run's fixed state: the workload, its campaign, and the
// reference outputs every later run is compared with.
type env struct {
	w     workload
	seed  int64
	work  string
	setup epoch.SetupFunc
	camp  *campaign
	ups   []upload
	ops   *tally

	refReport string
	refModels []byte
	// factors are every calibration factor of the run (see calibration).
	factors []float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sayf prints best-effort: a failed write to the benchmark's own output
// has no recovery, and a lost result line fails the run for its reader.
func sayf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch-cifar10, batch-wide-ckpt or serve-mixed")
	seed := fs.Int64("seed", 1, "campaign seed; the same seed generates the same profiles")
	seconds := fs.Float64("seconds", 30, "measuring time")
	traced := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	work := fs.String("work", "", "scratch directory for campaigns, stores and spools (required)")
	spans := fs.String("spans", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *work == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		sayf(stderr, "perfbench: need -workload NAME -work DIR, -seconds > 0 and -trace 0|1: %v\n", err)
		return 2
	}
	root, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(root) }()

	e := &env{w: w, seed: *seed, work: root, ops: &tally{w: stderr}}
	ctx := context.Background()
	setupS, err := e.setUp()
	if err == nil {
		err = e.reference(ctx)
	}
	if err != nil {
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var m map[string]float64
	specs, printed := endToEnd, printedOnly
	if *traced == 0 {
		m, err = e.measure(ctx, budget, stdout)
	} else {
		specs, printed = perLayer, nil
		m, err = e.measureTraced(ctx, budget, *spans, stdout)
	}
	if err != nil {
		e.ops.check(false, "%v", err)
		m = map[string]float64{}
	}
	if *traced == 0 {
		m["setup_s"] = setupS
	}
	return e.report(stdout, specs, printed, m)
}

// setUp generates the campaign and boots a server setupReps times, each
// into fresh directories, keeps the last campaign, and returns the median
// set-up time. Every generation must hash the same.
func (e *env) setUp() (float64, error) {
	b, err := engine.ByName("cifar10")
	if err != nil {
		return 0, err
	}
	strat, err := parallel.ByName("data")
	if err != nil {
		return 0, err
	}
	e.setup = engine.SetupFunc(b, strat, true)
	var secs []float64
	for range setupReps {
		if e.camp != nil {
			if err := os.RemoveAll(e.camp.dir); err != nil {
				return 0, err
			}
		}
		dir, err := os.MkdirTemp(e.work, "campaign-")
		if err != nil {
			return 0, err
		}
		spool, err := os.MkdirTemp(e.work, "boot-")
		if err != nil {
			return 0, err
		}
		scaleOf := e.calibration()
		t0 := time.Now()
		camp, err := generate(e.w, e.seed, dir)
		if err != nil {
			return 0, err
		}
		ups, err := camp.uploads(e.w.baseConfigs)
		if err != nil {
			return 0, err
		}
		srv, err := serve.New(serve.Config{SpoolDir: spool, Setup: e.setup, Analyze: analyzeOptions()})
		if err != nil {
			return 0, err
		}
		life, stop := context.WithCancel(context.Background())
		if err := srv.Start(life); err != nil {
			stop()
			return 0, err
		}
		ts := httptest.NewServer(srv.Handler())
		sec := time.Since(t0).Seconds()
		secs = append(secs, sec*scaleOf())
		ts.Close()
		stop()
		if err := srv.Drain(context.Background()); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(spool); err != nil {
			return 0, err
		}
		if e.camp != nil {
			e.ops.check(camp.sha256 == e.camp.sha256, "campaign generation is not deterministic for seed %d", e.seed)
		}
		e.camp, e.ups = camp, ups
	}
	return median(secs), nil
}

// reference makes the untimed warm-up run whose report and models every
// later run must reproduce.
func (e *env) reference(ctx context.Context) error {
	out, err := e.batchRun(ctx, e.camp.dir, nil, false, nil, "")
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	e.refReport = out.report
	e.refModels, err = core.EncodeModels(out.models)
	return err
}

// unit is one repeatable piece of a run's work with its share of the
// measuring time.
type unit struct {
	share float64
	run   func() error
	spent time.Duration
	n     int
}

// interleave runs the units until the budget is spent and each ran at
// least once, always picking the unit furthest below its share of the
// time so far. Every metric is thereby sampled across the whole run,
// not in one slice of it that a slow spell of the host could cover.
func interleave(budget time.Duration, units ...*unit) error {
	start := time.Now()
	for {
		var next *unit
		for _, u := range units {
			if u.share > 0 && (next == nil || float64(u.spent)/u.share < float64(next.spent)/next.share) {
				next = u
			}
		}
		if next == nil || next.n > 0 && time.Since(start) >= budget {
			return nil
		}
		t0 := time.Now()
		if err := next.run(); err != nil {
			return err
		}
		next.spent += time.Since(t0)
		next.n++
	}
}

// measure interleaves untraced batch iterations, resume probes and serve
// lifecycles over the budget.
func (e *env) measure(ctx context.Context, budget time.Duration, stdout io.Writer) (map[string]float64, error) {
	w := e.w
	var runs, rawRuns, allocs, resumes []float64
	st := newServeStats()
	err := interleave(budget,
		&unit{share: w.batchShare, run: func() error {
			scaleOf := e.calibration()
			out, resume, err := e.batchIteration(ctx, nil, w.ckpt)
			if err != nil {
				return err
			}
			scale := scaleOf()
			runs = append(runs, out.sec*scale)
			rawRuns = append(rawRuns, out.sec)
			allocs = append(allocs, float64(out.alloc)/(1<<20))
			if w.ckpt {
				resumes = append(resumes, resume*scale)
			}
			return nil
		}},
		&unit{share: w.resumeShare, run: func() error {
			scaleOf := e.calibration()
			_, resume, err := e.batchIteration(ctx, nil, true)
			if err != nil {
				return err
			}
			resumes = append(resumes, resume*scaleOf())
			return nil
		}},
		&unit{share: w.serveShare, run: func() error { return e.lifecycle(ctx, nil, nil, st) }},
	)
	if err != nil {
		return nil, err
	}
	sayf(stdout, "samples: runs=%d resumes=%d uploads=%d predicts=%d settled=%d\n",
		len(runs), len(resumes), len(st.u2r), len(st.predict), st.settledReq)
	sayf(stdout, "host: %d calibrations, factor median %.3f (p10 %.3f, p90 %.3f); unscaled run_p50_s %.6f upload_to_ready_p50_s %.6f\n",
		len(e.factors), median(e.factors), quantile(e.factors, 0.1), quantile(e.factors, 0.9), median(rawRuns), median(st.rawU2R))
	printPhases(stdout, st)
	sayf(stdout, "per lifecycle: query_rps %.0f predict_p99_ms %.2f\n", st.rps, st.predictP99)
	return map[string]float64{
		"run_p50_s":             median(runs),
		"run_p90_s":             quantile(runs, 0.9),
		"resume_p50_s":          median(resumes),
		"alloc_mb_per_run":      median(allocs),
		"peak_rss_mb":           peakRSSMB(),
		"upload_to_ready_p50_s": median(st.u2rLife),
		"upload_to_ready_p90_s": quantile(st.u2r, 0.9),
		"predict_p50_ms":        median(st.predict),
		"predict_p99_ms":        median(st.predictP99),
		"query_rps":             median(st.rps),
	}, nil
}

// measureTraced alternates untraced and traced batch iterations (their
// ratio is the tracing overhead), probes ingest and checkpoint on the
// campaign, runs traced serve lifecycles with a Collector on the server's
// observer, and writes the spans to spansPath.
func (e *env) measureTraced(ctx context.Context, budget time.Duration, spansPath string, stdout io.Writer) (map[string]float64, error) {
	w := e.w
	tr := newTracer()
	var untraced, traced []float64
	self := map[string][]float64{}
	alloc := map[string][]float64{}
	var last *batchOut
	st := newServeStats()
	obs := &campaignObserver{}
	err := interleave(budget,
		&unit{share: w.batchShare + w.resumeShare, run: func() error {
			scaleOf := e.calibration()
			u, _, err := e.batchIteration(ctx, nil, w.ckpt)
			if err != nil {
				return err
			}
			t, _, err := e.batchIteration(ctx, tr, w.ckpt)
			if err != nil {
				return err
			}
			scale := scaleOf()
			untraced = append(untraced, u.sec*scale)
			traced = append(traced, t.sec*scale)
			for layer, s := range tr.selfTimes(t.root) {
				self[layer] = append(self[layer], s*scale)
			}
			for _, s := range tr.children(t.root) {
				alloc[s.Name] = append(alloc[s.Name], float64(s.Alloc)/(1<<20))
			}
			last = t
			return nil
		}},
		&unit{share: w.serveShare, run: func() error { return e.lifecycle(ctx, tr, obs, st) }},
	)
	if err != nil {
		return nil, err
	}
	readS, decodeMBps := e.ingestProbe(3)
	ck, err := e.checkpointProbe(ctx, last.aggs, 3)
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}

	stage := st.campaign // per-campaign stage times, scaled
	m := map[string]float64{
		"ingest.read_s":              readS,
		"ingest.decode_mb_per_s":     decodeMBps,
		"ingest.alloc_mb":            median(alloc["ingest"]),
		"ingest.files":               float64(len(e.camp.names)),
		"ingest.mb":                  float64(e.camp.bytes) / (1 << 20),
		"aggregate.alloc_mb":         median(alloc["aggregate"]),
		"fit.tasks":                  float64(counter(last.stages, pipeline.StageFit, "tasks")),
		"fit.alloc_mb":               median(alloc["fit.build_models"]),
		"checkpoint.write_s":         ck.writeS,
		"checkpoint.store_kb":        ck.storeKB,
		"checkpoint.files":           ck.files,
		"checkpoint.resume_s":        ck.resumeS,
		"checkpoint.reuse_frac":      ck.reuseFrac,
		"report.bytes":               float64(len(e.refReport)),
		"serve.upload_ack_ms":        median(st.ack),
		"serve.envelope_ratio":       float64(st.bodyBytes) / float64(st.rawBytes),
		"serve.redecode_ratio":       float64(obs.decoded) / float64(st.rawBytes),
		"serve.campaigns_per_upload": float64(len(stage[pipeline.StageIngest])) / float64(st.uploads),
		"serve.campaign.ingest_s":    median(stage[pipeline.StageIngest]),
		"serve.campaign.aggregate_s": median(stage[pipeline.StageAggregate]),
		"serve.campaign.fit_s":       median(stage[pipeline.StageFit]),
		"serve.gen_lateness_p99_ms":  quantile(st.lateness, 0.99),
		"trace.overhead_frac":        median(traced)/median(untraced) - 1,
	}
	for _, route := range queryRoutes {
		m["serve.route_p50_ms."+route] = median(st.route[route])
	}
	var selfSum float64
	for _, layer := range layers {
		m[layer+".s"] = median(self[layer])
		selfSum += m[layer+".s"]
	}
	sayf(stdout, "traced runs=%d run_p50_s traced=%.6f untraced=%.6f layer self-time sum=%.6f (%.2f%% of traced)\n",
		len(traced), median(traced), median(untraced), selfSum, 100*selfSum/median(traced))
	for _, layer := range layers {
		sayf(stdout, "layer %-10s self %.6f s  %5.1f%% of self time\n", layer, m[layer+".s"], 100*m[layer+".s"]/selfSum)
	}
	printPhases(stdout, st)
	return m, nil
}

// printPhases prints each serve phase's requests sent, succeeded and
// failed.
func printPhases(stdout io.Writer, st *serveStats) {
	names := make([]string, 0, len(st.phases))
	for name := range st.phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := st.phases[name]
		sayf(stdout, "serve phase %-9s sent=%d ok=%d failed=%d\n", name, p.sent, p.ok, p.failed)
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run record, the printed metrics, every metric of
// specs with its unit, and the result line of specs; it returns the exit
// code.
func (e *env) report(stdout io.Writer, specs, printed []metricSpec, m map[string]float64) int {
	out := map[string]metricValue{}
	for _, s := range printed {
		sayf(stdout, "metric %-32s %14.6f %s (printed only)\n", s.name, m[s.name], s.unit)
	}
	for _, s := range specs {
		v, ok := m[s.name]
		if !e.ops.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s was not measured", s.name) {
			v = -1
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
		sayf(stdout, "metric %-32s %14.6f %s\n", s.name, v, s.unit)
	}
	digest := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	record, _ := json.Marshal(map[string]any{
		"workload":        e.w.name,
		"seed":            e.seed,
		"files":           len(e.camp.names),
		"profile_mb":      float64(e.camp.bytes) / (1 << 20),
		"campaign_sha256": e.camp.sha256,
		"report_sha256":   digest(e.refReport),
		"models_sha256":   digest(string(e.refModels)),
	})
	sayf(stdout, "record %s\n", record)
	attempted, failed := e.ops.attempted.Load(), e.ops.failed.Load()
	sayf(stdout, "fail_frac %.6f (%d of %d operations failed)\n", float64(failed)/float64(attempted), failed, attempted)
	result, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		sayf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	sayf(stdout, "%s\n", result)
	if failed > 0 {
		return 1
	}
	return 0
}
