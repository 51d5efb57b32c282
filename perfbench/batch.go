package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"extradeep/internal/aggregate"
	"extradeep/internal/core"
	"extradeep/internal/ingest"
	"extradeep/internal/modeling"
	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
	"extradeep/internal/simulator/hardware"
)

// ingestOptions is cmd/extradeep's default (lenient) ingest policy.
var ingestOptions = ingest.Options{Policy: ingest.Lenient}

// cliConfig is pipeline.Config as cmd/extradeep builds it for
// `-benchmark cifar10 -j 1`: pipeline.New does not default Aggregation,
// so the CLI sets it, and so does the benchmark.
func cliConfig(store *resilience.Store, resume bool, obs pipeline.Observer) pipeline.Config {
	return pipeline.Config{
		Workers:     1,
		Aggregation: aggregate.DefaultOptions(),
		Modeling:    modeling.DefaultOptions(),
		Observer:    obs,
		Checkpoint:  store,
		Resume:      resume,
	}
}

// analyzeOptions are the CLIs' analysis defaults on DEEP with -top 10.
func analyzeOptions() pipeline.AnalyzeOptions {
	return pipeline.AnalyzeOptions{CoresPerRank: float64(hardware.DEEP().CoresPerRank), TopKernels: 10}
}

// batchOut is one full batch run's outputs and costs.
type batchOut struct {
	report string
	models *pipeline.ModelSet
	aggs   []*aggregate.ConfigAggregate
	sec    float64
	alloc  uint64
	// Traced runs only: the root span and the pipeline's stage events.
	root   int
	stages []pipeline.StageStats
}

// batchRun makes the call sequence of cmd/extradeep over dir: Ingest →
// Report.Gate → Aggregate → BuildModels → Analyze → RenderContext. With a
// tracer, each call is a span under a root named name, and the epoch and
// fit stages inside BuildModels become child spans from a
// pipeline.Collector passed as the observer.
func (e *env) batchRun(ctx context.Context, dir string, store *resilience.Store, resume bool, tr *tracer, name string) (*batchOut, error) {
	var col *pipeline.Collector
	var obs pipeline.Observer
	if tr != nil {
		col = &pipeline.Collector{}
		obs = col
	}
	pl := pipeline.New(cliConfig(store, resume, obs))
	out := &batchOut{}
	// Start each run from a collected heap, as a fresh CLI process does.
	runtime.GC()
	a0 := allocBytes()
	start := time.Now()
	out.root = tr.begin(name, 0)

	sp := tr.begin("ingest", out.root)
	rep, err := pl.Ingest(ctx, dir, "json", ingestOptions)
	if err == nil {
		err = rep.Gate(ingestOptions)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("aggregate", out.root)
	out.aggs, err = pl.Aggregate(ctx, rep.Profiles)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("fit.build_models", out.root)
	bmStart := time.Now()
	out.models, err = pl.BuildModels(ctx, out.aggs, e.setup)
	bmEnd := time.Now()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if col != nil {
		out.stages = col.Stats()
		for _, st := range out.stages {
			switch st.Stage {
			case pipeline.StageEpoch:
				tr.add("epoch", sp, bmStart, bmStart.Add(st.Duration))
			case pipeline.StageFit:
				tr.add("fit.stage", sp, bmEnd.Add(-st.Duration), bmEnd)
			}
		}
	}

	sp = tr.begin("analyze", out.root)
	res, err := pl.Analyze(ctx, out.models, out.aggs, analyzeOptions())
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("report", out.root)
	out.report, err = pl.RenderContext(ctx, res)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.end(out.root)
	out.sec = time.Since(start).Seconds()
	out.alloc = allocBytes() - a0
	return out, nil
}

// counter returns a stage counter from a run's stage events.
func counter(stages []pipeline.StageStats, s pipeline.Stage, key string) int {
	for _, st := range stages {
		if st.Stage == s {
			return st.Counters[key]
		}
	}
	return 0
}

// checkReport counts one comparison of a run's report against the
// reference run's.
func (e *env) checkReport(what string, out *batchOut) {
	e.ops.check(out.report == e.refReport, "%s: report differs from the reference run's", what)
}

// batchIteration is one measured batch iteration: a cold run (into a
// fresh checkpoint store on ckpt workloads, followed by a Resume rerun
// over that store). It returns the cold run and the resume time (0
// without a store).
func (e *env) batchIteration(ctx context.Context, tr *tracer, withStore bool) (*batchOut, float64, error) {
	if !withStore {
		out, err := e.batchRun(ctx, e.camp.dir, nil, false, tr, "run")
		if e.ops.op(err, "batch run") {
			e.checkReport("batch run", out)
		}
		return out, 0, err
	}
	dir, err := os.MkdirTemp(e.work, "ckpt-")
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	store := &resilience.Store{Dir: dir}
	cold, err := e.batchRun(ctx, e.camp.dir, store, false, tr, "run")
	if !e.ops.op(err, "cold run into a checkpoint store") {
		return nil, 0, err
	}
	e.checkReport("cold run", cold)
	warm, err := e.batchRun(ctx, e.camp.dir, store, true, tr, "resume")
	if !e.ops.op(err, "resume run") {
		return cold, 0, err
	}
	e.ops.check(warm.report == cold.report, "resume report differs from its cold report")
	return cold, warm.sec, nil
}

// ckptStats is the checkpoint layer measured on one set of aggregates.
type ckptStats struct {
	writeS, resumeS, storeKB, files, reuseFrac float64
}

// checkpointProbe runs BuildModels on the same aggregates without a
// store, cold into a fresh store, and with Resume over that store, reps
// times. The write cost is the median cold time minus the median
// storeless time. Every model encoding must equal the storeless one's.
func (e *env) checkpointProbe(ctx context.Context, aggs []*aggregate.ConfigAggregate, reps int) (ckptStats, error) {
	var plain, cold, warm []float64
	var st ckptStats
	for range reps {
		scaleOf := e.calibration()
		t0 := time.Now()
		ref, err := pipeline.New(cliConfig(nil, false, nil)).BuildModels(ctx, aggs, e.setup)
		plain = append(plain, time.Since(t0).Seconds()*scaleOf())
		if !e.ops.op(err, "storeless BuildModels") {
			return st, err
		}
		refBytes, err := core.EncodeModels(ref)
		if !e.ops.op(err, "encoding models") {
			return st, err
		}
		dir, err := os.MkdirTemp(e.work, "probe-")
		if err != nil {
			return st, err
		}
		store := &resilience.Store{Dir: dir}
		for _, resume := range []bool{false, true} {
			col := &pipeline.Collector{}
			scaleOf := e.calibration()
			t0 := time.Now()
			ms, err := pipeline.New(cliConfig(store, resume, col)).BuildModels(ctx, aggs, e.setup)
			sec := time.Since(t0).Seconds() * scaleOf()
			if !e.ops.op(err, "checkpointed BuildModels") {
				_ = os.RemoveAll(dir)
				return st, err
			}
			got, err := core.EncodeModels(ms)
			e.ops.check(err == nil && bytes.Equal(got, refBytes), "checkpointed models (resume=%v) differ from the storeless models", resume)
			if !resume {
				cold = append(cold, sec)
				n, b := dirStats(dir)
				st.files, st.storeKB = float64(n), float64(b)/1024
				continue
			}
			warm = append(warm, sec)
			if tasks := counter(col.Stats(), pipeline.StageFit, "tasks"); tasks > 0 {
				st.reuseFrac = float64(counter(col.Stats(), pipeline.StageFit, "reused")) / float64(tasks)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return st, err
		}
	}
	st.writeS = median(cold) - median(plain)
	st.resumeS = median(warm)
	return st, nil
}

// ingestProbe times the two halves of ingest separately over the
// campaign: reading every file, and ingest.DecodeBytes over bytes already
// in memory. It returns the median read seconds and decode MB/s.
func (e *env) ingestProbe(reps int) (readS, decodeMBps float64) {
	var reads, decodes []float64
	for range reps {
		scaleOf := e.calibration()
		t0 := time.Now()
		for _, name := range e.camp.names {
			_, err := os.ReadFile(filepath.Join(e.camp.dir, name))
			e.ops.op(err, "reading a profile")
		}
		reads = append(reads, time.Since(t0).Seconds()*scaleOf())
		scaleOf = e.calibration()
		t0 = time.Now()
		for _, name := range e.camp.names {
			_, _, err := ingest.DecodeBytes(e.camp.data[name], "json")
			e.ops.op(err, fmt.Sprintf("decoding %s", name))
		}
		decodes = append(decodes, time.Since(t0).Seconds()*scaleOf())
	}
	return median(reads), float64(e.camp.bytes) / (1 << 20) / median(decodes)
}
