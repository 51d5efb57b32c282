package aggregate

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/propcheck/edgen"
	"extradeep/internal/trace"
)

// makeTrace builds a trace with the given number of epochs, train steps
// per epoch and one validation step per epoch. kernelDur is the duration
// the compute kernel runs per step; commDur the MPI time per train step.
func makeTrace(rank, epochs, trainSteps int, kernelDur, commDur float64) trace.Trace {
	tr := trace.Trace{Rank: rank}
	t := 0.0
	for e := 0; e < epochs; e++ {
		epochStart := t
		for s := 0; s < trainSteps; s++ {
			start := t
			dur := kernelDur
			if e == 0 {
				dur *= 3 // warm-up distortion in epoch 0
			}
			tr.Events = append(tr.Events,
				trace.Event{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Callpath: "App->train->EigenMetaKernel", Start: start + 0.001, Duration: dur},
				trace.Event{Name: "MPI_Allreduce", Kind: calltree.KindMPI, Callpath: "App->train->MPI_Allreduce", Start: start + 0.001 + dur, Duration: commDur},
				trace.Event{Name: "Memcpy HtoD", Kind: calltree.KindMemcpy, Callpath: "App->train->Memcpy HtoD", Start: start + 0.0005, Duration: 0.0002, Bytes: 4096},
			)
			stepEnd := start + 0.001 + dur + commDur + 0.001
			tr.Steps = append(tr.Steps, trace.StepSpan{Epoch: e, Index: s, Phase: trace.PhaseTrain, Start: start, End: stepEnd})
			t = stepEnd
			// Async event between steps.
			tr.Events = append(tr.Events,
				trace.Event{Name: "Memcpy DtoH", Kind: calltree.KindMemcpy, Callpath: "App->train->Memcpy DtoH", Start: t + 0.0001, Duration: 0.0003, Bytes: 2048})
			t += 0.001
		}
		// Validation step.
		vStart := t
		tr.Events = append(tr.Events,
			trace.Event{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Callpath: "App->test->EigenMetaKernel", Start: vStart + 0.001, Duration: kernelDur / 2})
		vEnd := vStart + 0.001 + kernelDur/2 + 0.001
		tr.Steps = append(tr.Steps, trace.StepSpan{Epoch: e, Index: trainSteps, Phase: trace.PhaseValidation, Start: vStart, End: vEnd})
		t = vEnd
		tr.Epochs = append(tr.Epochs, trace.EpochSpan{Index: e, Start: epochStart, End: t})
		t += 0.002
	}
	tr.Sort()
	return tr
}

func makeProfiles(ranks, reps int, kernelDur, commDur float64) []*profile.Profile {
	var out []*profile.Profile
	for rep := 1; rep <= reps; rep++ {
		for rank := 0; rank < ranks; rank++ {
			out = append(out, &profile.Profile{
				App:      "cifar10",
				Params:   []string{"p"},
				Config:   []float64{float64(ranks)},
				Rank:     rank,
				Rep:      rep,
				WallTime: 1.5,
				Sampled:  true,
				Trace:    makeTrace(rank, 2, 5, kernelDur, commDur),
			})
		}
	}
	return out
}

func TestAggregateEmpty(t *testing.T) {
	if _, err := Aggregate(nil, DefaultOptions()); err == nil {
		t.Error("empty input accepted")
	}
}

func TestAggregateMixedConfigsRejected(t *testing.T) {
	a := makeProfiles(2, 1, 0.01, 0.002)
	b := makeProfiles(4, 1, 0.01, 0.002)
	if _, err := Aggregate(append(a, b...), DefaultOptions()); err == nil {
		t.Error("mixed configurations accepted")
	}
}

func TestAggregateBasicStructure(t *testing.T) {
	agg, err := Aggregate(makeProfiles(4, 3, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if agg.App != "cifar10" || !mathutil.Close(agg.Point[0], 4) {
		t.Errorf("identity wrong: %s %v", agg.App, agg.Point)
	}
	if agg.Reps != 3 {
		t.Errorf("Reps = %d, want 3", agg.Reps)
	}
	if agg.TrainSteps != 5 || agg.ValidationSteps != 1 {
		t.Errorf("steps = %d/%d, want 5/1", agg.TrainSteps, agg.ValidationSteps)
	}
	for _, want := range []string{
		"App->train->EigenMetaKernel",
		"App->train->MPI_Allreduce",
		"App->train->Memcpy HtoD",
		"App->train->Memcpy DtoH",
		"App->test->EigenMetaKernel",
	} {
		if agg.Kernels[want] == nil {
			t.Errorf("kernel %q missing", want)
		}
	}
}

func TestAggregateSkipsWarmupEpoch(t *testing.T) {
	// Epoch 0 has 3× kernel durations; with warm-up skipping, the
	// aggregated kernel time must reflect epoch 1 only.
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	got := k.Value[measurement.MetricTime].Train
	if got < 0.009 || got > 0.011 {
		t.Errorf("train time = %v, want ≈0.01 (epoch-1 value)", got)
	}
}

func TestAggregateWithoutWarmupSkipping(t *testing.T) {
	opts := Options{SkipWarmupEpochs: 0}
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), opts)
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	got := k.Value[measurement.MetricTime].Train
	// Median over 10 steps (5 at 0.03, 5 at 0.01) = 0.02.
	if got < 0.019 || got > 0.021 {
		t.Errorf("train time = %v, want ≈0.02 (median across both epochs)", got)
	}
}

func TestAggregateVisitsMetric(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	if got := k.Value[measurement.MetricVisits].Train; !mathutil.Close(got, 1) {
		t.Errorf("visits per train step = %v, want 1", got)
	}
	v := agg.Kernels["App->test->EigenMetaKernel"]
	if got := v.Value[measurement.MetricVisits].Validation; !mathutil.Close(got, 1) {
		t.Errorf("visits per validation step = %v, want 1", got)
	}
}

func TestAggregateBytesOnlyForMemoryOps(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mem := agg.Kernels["App->train->Memcpy HtoD"]
	if got := mem.Value[measurement.MetricBytes].Train; !mathutil.Close(got, 4096) {
		t.Errorf("memcpy bytes = %v, want 4096", got)
	}
	comp := agg.Kernels["App->train->EigenMetaKernel"]
	if _, ok := comp.Value[measurement.MetricBytes]; ok {
		t.Error("compute kernel carries a bytes metric")
	}
}

func TestAggregateAsyncEventsAttributedToFollowingStep(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	async := agg.Kernels["App->train->Memcpy DtoH"]
	if async == nil {
		t.Fatal("async kernel missing")
	}
	// The DtoH copy fires after each train step; attributed to the
	// following step it appears in train steps (and the validation step
	// absorbs the copy after the last train step of the epoch).
	if async.Value[measurement.MetricTime].Train <= 0 {
		t.Error("async kernel has no train-step time")
	}
}

func TestAggregateValidationSeparatedFromTrain(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := agg.Kernels["App->test->EigenMetaKernel"]
	if v.Value[measurement.MetricTime].Train != 0 {
		t.Error("validation kernel leaked into train phase")
	}
	if got := v.Value[measurement.MetricTime].Validation; got < 0.004 || got > 0.006 {
		t.Errorf("validation time = %v, want ≈0.005", got)
	}
}

func TestAggregateCategories(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	comp := agg.Categories[calltree.CategoryComputation][measurement.MetricTime]
	comm := agg.Categories[calltree.CategoryCommunication][measurement.MetricTime]
	mem := agg.Categories[calltree.CategoryMemory][measurement.MetricTime]
	if comp.Train < 0.009 {
		t.Errorf("computation train = %v", comp.Train)
	}
	if comm.Train < 0.0019 || comm.Train > 0.0021 {
		t.Errorf("communication train = %v, want ≈0.002", comm.Train)
	}
	if mem.Train <= 0 {
		t.Errorf("memory train = %v", mem.Train)
	}
	if comm.Validation != 0 {
		t.Error("communication leaked into validation")
	}
}

func TestAggregateCategoryIsSumOfKernels(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 2, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, k := range agg.Kernels {
		if k.Category() == calltree.CategoryComputation {
			sum += k.Value[measurement.MetricTime].Train
		}
	}
	got := agg.Categories[calltree.CategoryComputation][measurement.MetricTime].Train
	if diff := got - sum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("category sum = %v, kernel sum = %v", got, sum)
	}
}

func TestAggregatePerRepLengths(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 4, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range agg.Kernels {
		for metric, perRep := range k.PerRep {
			if len(perRep) != 4 {
				t.Errorf("kernel %s metric %s: perRep len = %d, want 4", k.Callpath, metric, len(perRep))
			}
		}
	}
	for cat, byMetric := range agg.CategoriesPerRep {
		for metric, perRep := range byMetric {
			if len(perRep) != 4 {
				t.Errorf("category %v metric %s: perRep len = %d, want 4", cat, metric, len(perRep))
			}
		}
	}
}

func TestAggregateRanksCount(t *testing.T) {
	agg, err := Aggregate(makeProfiles(3, 2, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	if k.Ranks != 3 {
		t.Errorf("Ranks = %d, want 3", k.Ranks)
	}
	if k.StepsObserved == 0 {
		t.Error("StepsObserved = 0")
	}
}

func TestAggregateMedianRobustAcrossRanks(t *testing.T) {
	// One rank is 10× slower (straggler); the median over ranks should
	// stay near the typical value.
	profiles := makeProfiles(5, 1, 0.01, 0.002)
	slow := makeTrace(4, 2, 5, 0.1, 0.002)
	profiles[4].Trace = slow
	agg, err := Aggregate(profiles, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Kernels["App->train->EigenMetaKernel"].Value[measurement.MetricTime].Train
	if got > 0.02 {
		t.Errorf("median over ranks = %v, straggler leaked in", got)
	}
}

func TestAggregateMeanOption(t *testing.T) {
	profiles := makeProfiles(5, 1, 0.01, 0.002)
	profiles[4].Trace = makeTrace(4, 2, 5, 0.1, 0.002)
	opts := DefaultOptions()
	opts.UseMean = true
	agg, err := Aggregate(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Kernels["App->train->EigenMetaKernel"].Value[measurement.MetricTime].Train
	if got < 0.02 {
		t.Errorf("mean over ranks = %v, should be dragged by straggler", got)
	}
}

func TestAggregateWallTimes(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 2, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.WallTimes) != 4 {
		t.Errorf("WallTimes = %d entries, want 4", len(agg.WallTimes))
	}
}

func TestSortedKernels(t *testing.T) {
	agg, err := Aggregate(makeProfiles(2, 1, 0.01, 0.002), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ks := agg.SortedKernels()
	for i := 1; i < len(ks); i++ {
		if ks[i-1].Callpath >= ks[i].Callpath {
			t.Fatalf("kernels not sorted: %q before %q", ks[i-1].Callpath, ks[i].Callpath)
		}
	}
}

func TestStepValueAdd(t *testing.T) {
	a := StepValue{Train: 1, Validation: 2}
	b := StepValue{Train: 3, Validation: 4}
	c := a.Add(b)
	if !mathutil.Close(c.Train, 4) || !mathutil.Close(c.Validation, 6) {
		t.Errorf("Add = %+v", c)
	}
}

func TestSingleEpochTraceUsedAsIs(t *testing.T) {
	// A trace with a single epoch cannot lose it to warm-up skipping.
	var profiles []*profile.Profile
	for rank := 0; rank < 2; rank++ {
		profiles = append(profiles, &profile.Profile{
			App: "x", Params: []string{"p"}, Config: []float64{2},
			Rank: rank, Rep: 1,
			Trace: makeTrace(rank, 1, 3, 0.01, 0.001),
		})
	}
	agg, err := Aggregate(profiles, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := agg.Kernels["App->train->EigenMetaKernel"]
	// Epoch 0 is the warm-up epoch with 3× duration, but it is the only
	// epoch, so its data must be used.
	got := k.Value[measurement.MetricTime].Train
	if got < 0.029 || got > 0.031 {
		t.Errorf("single-epoch value = %v, want ≈0.03", got)
	}
}

// oracleOptions are the option combinations the dense path is checked
// against the oracle with.
func oracleOptions() []Options {
	var out []Options
	for skip := 0; skip <= 2; skip++ {
		for _, mean := range []bool{false, true} {
			out = append(out, Options{SkipWarmupEpochs: skip, UseMean: mean})
		}
	}
	return out
}

// matchesOracle reports the first option set under which Aggregate and
// aggregateOracle disagree on ps.
func matchesOracle(ps []*profile.Profile) error {
	for _, opts := range oracleOptions() {
		got, err := Aggregate(ps, opts)
		if err != nil {
			return fmt.Errorf("%+v: %w", opts, err)
		}
		want, err := aggregateOracle(ps, opts)
		if err != nil {
			return fmt.Errorf("%+v: oracle: %w", opts, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%+v: dense aggregate differs from the oracle", opts)
		}
	}
	return nil
}

// TestPropAggregateMatchesOracle: the dense-ID path returns a
// bit-identical ConfigAggregate to the map-based oracle, on regular
// traces and on irregular ones (async events, name keys, Count > 1,
// mixed-kind keys, shuffled events, missing kernels and profiles), for
// every warm-up skip and with medians or means.
func TestPropAggregateMatchesOracle(t *testing.T) {
	shape := edgen.SetShape{MaxConfigs: 1, MaxRanks: 5, MaxReps: 4}
	regular := edgen.ProfileSet(shape)
	shape.Trace.Irregular = true
	irregular := edgen.ProfileSet(shape)
	gen := propcheck.Gen[[]*profile.Profile]{
		Generate: func(r *propcheck.Rand) []*profile.Profile {
			if r.Intn(4) == 0 {
				return regular.Generate(r)
			}
			return irregular.Generate(r)
		},
		Describe: irregular.Describe,
	}
	propcheck.Check(t, gen, matchesOracle)
}

// TestAggregateUnorderedEpochs: warm-up selection reads epochs in place
// only when they are ordered by index; a trace listing its epochs in
// another order aggregates as the oracle does and as the same trace with
// ordered epochs.
func TestAggregateUnorderedEpochs(t *testing.T) {
	ordered := makeProfiles(3, 2, 0.01, 0.002)
	for _, p := range ordered {
		p.Trace = makeTrace(p.Rank, 4, 3, 0.01, 0.002)
	}
	shuffled := make([]*profile.Profile, len(ordered))
	for i, p := range ordered {
		q := *p
		q.Trace.Epochs = slices.Clone(p.Trace.Epochs)
		slices.Reverse(q.Trace.Epochs)
		q.Trace.Epochs[0], q.Trace.Epochs[1] = q.Trace.Epochs[1], q.Trace.Epochs[0]
		shuffled[i] = &q
	}
	if err := matchesOracle(shuffled); err != nil {
		t.Fatal(err)
	}
	for _, opts := range oracleOptions() {
		want, err := Aggregate(ordered, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Aggregate(shuffled, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: unordered epochs aggregate differently", opts)
		}
	}
}

// TestAggregateMixedKindKey: a callpath whose events mix a compute and a
// memory kind within one phase aggregates in either order, without a
// panic and as the oracle does; the last event's kind decides whether
// the kernel carries bytes.
func TestAggregateMixedKindKey(t *testing.T) {
	for _, tc := range []struct {
		name      string
		kinds     [2]calltree.Kind
		wantBytes bool
	}{
		{"compute then memcpy", [2]calltree.Kind{calltree.KindCUDA, calltree.KindMemcpy}, true},
		{"memcpy then compute", [2]calltree.Kind{calltree.KindMemcpy, calltree.KindCUDA}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := makeProfiles(2, 2, 0.01, 0.002)
			for _, p := range ps {
				tr := &p.Trace
				for _, st := range tr.Steps {
					for i, kind := range tc.kinds {
						tr.Events = append(tr.Events, trace.Event{
							Name: "mixed", Kind: kind, Callpath: "App->mixed",
							Start: st.Start + float64(i+1)*1e-5, Duration: 1e-6, Bytes: 512,
						})
					}
				}
				tr.Sort()
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			if err := matchesOracle(ps); err != nil {
				t.Fatal(err)
			}
			agg, err := Aggregate(ps, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			k := agg.Kernels["App->mixed"]
			if k.Kind != tc.kinds[1] {
				t.Errorf("kind = %v, want the last event's %v", k.Kind, tc.kinds[1])
			}
			bytes, ok := k.Value[measurement.MetricBytes]
			if ok != tc.wantBytes {
				t.Fatalf("bytes metric present = %v, want %v", ok, tc.wantBytes)
			}
			if ok && !mathutil.Close(bytes.Train, 512) {
				t.Errorf("bytes per train step = %v, want the memcpy's 512", bytes.Train)
			}
		})
	}
}

// TestAggregateRanksBeyondOneWord: more distinct ranks than one 64-bit
// rank-set word still count exactly, with one rank missing from the
// second repetition.
func TestAggregateRanksBeyondOneWord(t *testing.T) {
	var ps []*profile.Profile
	for rep := 1; rep <= 2; rep++ {
		for rank := 0; rank < 70; rank++ {
			if rep == 2 && rank == 3 {
				continue
			}
			ps = append(ps, &profile.Profile{
				App: "x", Params: []string{"p"}, Config: []float64{70},
				Rank: rank * 3, Rep: rep, Trace: makeTrace(rank*3, 2, 2, 0.01, 0.001),
			})
		}
	}
	if err := matchesOracle(ps); err != nil {
		t.Fatal(err)
	}
	agg, err := Aggregate(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Kernels["App->train->EigenMetaKernel"].Ranks; got != 70 {
		t.Errorf("Ranks = %d, want 70", got)
	}
}

// ---- The oracle: the string-keyed map implementation of Fig. 2. ----

// metricValue extracts the value of metric m from an event: duration for
// time, 1 for visits, transferred bytes for bytes.
func metricValue(e trace.Event, m measurement.Metric) float64 {
	switch m {
	case measurement.MetricTime:
		return e.Duration
	case measurement.MetricVisits:
		return e.Visits()
	case measurement.MetricBytes:
		return e.Bytes
	default:
		return 0
	}
}

// metricsFor returns the metrics recorded for a kernel kind: memory
// operations additionally carry transferred bytes.
func metricsFor(kind calltree.Kind) []measurement.Metric {
	if calltree.CategoryOf(kind) == calltree.CategoryMemory {
		return []measurement.Metric{measurement.MetricTime, measurement.MetricVisits, measurement.MetricBytes}
	}
	return []measurement.Metric{measurement.MetricTime, measurement.MetricVisits}
}

// reduce aggregates a slice with median (default) or mean.
func reduce(xs []float64, useMean bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	if useMean {
		m, _ := mathutil.Mean(xs) // non-empty by the guard above
		return m
	}
	m, _ := mathutil.Median(xs) // non-empty by the guard above
	return m
}

// perStepSums computes step (1) of the pipeline for one trace: for every
// kernel and metric, the per-step sums v_n, separated by phase. Steps of
// skipped (warm-up) epochs are excluded. Asynchronous events between steps
// are attributed to the following step.
type stepSums struct {
	// sums maps kernel key → metric → per-step values (aligned with the
	// kept step indices of that phase).
	train, validation map[string]map[measurement.Metric][]float64
	kinds             map[string]calltree.Kind
	names             map[string]string
	observed          map[string]int // steps with ≥1 event, per kernel
}

func perStepSums(tr *trace.Trace, skipEpochs []int, trainIdx, valIdx []int) stepSums {
	s := stepSums{
		train:      make(map[string]map[measurement.Metric][]float64),
		validation: make(map[string]map[measurement.Metric][]float64),
		kinds:      make(map[string]calltree.Kind),
		names:      make(map[string]string),
		observed:   make(map[string]int),
	}
	skip := make(map[int]bool, len(skipEpochs))
	for _, e := range skipEpochs {
		skip[e] = true
	}
	// Map global step index → (phase, position within kept steps).
	type slot struct {
		phase trace.Phase
		pos   int
	}
	slots := make(map[int]slot, len(trainIdx)+len(valIdx))
	for pos, i := range trainIdx {
		slots[i] = slot{trace.PhaseTrain, pos}
	}
	for pos, i := range valIdx {
		slots[i] = slot{trace.PhaseValidation, pos}
	}

	ensure := func(m map[string]map[measurement.Metric][]float64, key string, kind calltree.Kind, n int) map[measurement.Metric][]float64 {
		byMetric := m[key]
		if byMetric == nil {
			byMetric = make(map[measurement.Metric][]float64)
			for _, metric := range metricsFor(kind) {
				byMetric[metric] = make([]float64, n)
			}
			m[key] = byMetric
		}
		return byMetric
	}

	// Track which (kernel, step) pairs saw events, to count observations.
	type obsKey struct {
		kernel string
		step   int
	}
	seen := make(map[obsKey]bool)

	for _, e := range tr.Events {
		stepIdx := tr.StepOf(e.Start)
		if stepIdx == -1 {
			// Asynchronous kernel: attribute to the following step, per
			// the paper's between-step handling.
			stepIdx = tr.FollowingStep(e.Start)
			if stepIdx == -1 {
				continue // after the last step: outside the profiled window
			}
		}
		st := tr.Steps[stepIdx]
		if skip[st.Epoch] {
			continue
		}
		sl, ok := slots[stepIdx]
		if !ok {
			continue
		}
		key := kernelKey(e)
		s.kinds[key] = e.Kind
		s.names[key] = e.Name
		var byMetric map[measurement.Metric][]float64
		if sl.phase == trace.PhaseTrain {
			byMetric = ensure(s.train, key, e.Kind, len(trainIdx))
		} else {
			byMetric = ensure(s.validation, key, e.Kind, len(valIdx))
		}
		for _, metric := range metricsFor(e.Kind) {
			if byMetric[metric] == nil {
				// A key whose first event was not a memory operation
				// meets one later: create its bytes row on first use.
				byMetric[metric] = make([]float64, len(byMetric[measurement.MetricTime]))
			}
			byMetric[metric][sl.pos] += metricValue(e, metric)
		}
		ok2 := obsKey{kernel: key, step: stepIdx}
		if !seen[ok2] {
			seen[ok2] = true
			s.observed[key]++
		}
	}
	return s
}

// aggregateOracle is the map-based implementation Aggregate replaced,
// kept verbatim (plus the mixed-kind fix above) as the differential
// oracle for the dense-ID path: both must return bit-identical
// aggregates.
func aggregateOracle(profiles []*profile.Profile, opts Options) (*ConfigAggregate, error) {
	if len(profiles) == 0 {
		return nil, errors.New("aggregate: no profiles")
	}
	first := profiles[0]
	for _, p := range profiles[1:] {
		if p.App != first.App || !measurement.Point(p.Config).Equal(measurement.Point(first.Config)) {
			return nil, fmt.Errorf("aggregate: mixed configurations: %s%v vs %s%v",
				first.App, first.Config, p.App, p.Config)
		}
	}

	// Group by repetition, then by rank.
	byRep := make(map[int][]*profile.Profile)
	for _, p := range profiles {
		byRep[p.Rep] = append(byRep[p.Rep], p)
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)

	agg := &ConfigAggregate{
		App:              first.App,
		Params:           append([]string(nil), first.Params...),
		Point:            measurement.Point(first.Config).Clone(),
		Kernels:          make(map[string]*KernelAggregate),
		Categories:       make(map[calltree.Category]map[measurement.Metric]StepValue),
		CategoriesPerRep: make(map[calltree.Category]map[measurement.Metric][]StepValue),
		Reps:             len(reps),
	}

	// perRankValues[key][metric] collects, for the current repetition,
	// the per-rank reduced (median-over-steps) values.
	type repResult struct {
		values map[string]map[measurement.Metric]StepValue
	}
	var repResults []repResult
	kinds := make(map[string]calltree.Kind)
	names := make(map[string]string)
	rankSets := make(map[string]map[int]bool)
	stepsObserved := make(map[string]int)

	for _, rep := range reps {
		group := byRep[rep]
		sort.SliceStable(group, func(i, j int) bool { return group[i].Rank < group[j].Rank })
		// perRank[key][metric] → per-rank slice of ṽ_kr values.
		perRankTrain := make(map[string]map[measurement.Metric][]float64)
		perRankVal := make(map[string]map[measurement.Metric][]float64)

		for _, p := range group {
			tr := &p.Trace
			skipEpochs := oracleWarmupEpochs(tr, opts.SkipWarmupEpochs)
			trainIdx := tr.StepsOfPhase(trace.PhaseTrain, skipEpochs...)
			valIdx := tr.StepsOfPhase(trace.PhaseValidation, skipEpochs...)
			if agg.TrainSteps == 0 && p.Rank == 0 {
				agg.TrainSteps = len(trainIdx)
				agg.ValidationSteps = len(valIdx)
			}
			sums := perStepSums(tr, skipEpochs, trainIdx, valIdx)
			for _, key := range sortedCallpathKeys(sums.train) {
				byMetric := sums.train[key]
				kinds[key] = sums.kinds[key]
				names[key] = sums.names[key]
				addRankValue(perRankTrain, key, byMetric, opts.UseMean)
			}
			for _, key := range sortedCallpathKeys(sums.validation) {
				byMetric := sums.validation[key]
				kinds[key] = sums.kinds[key]
				names[key] = sums.names[key]
				addRankValue(perRankVal, key, byMetric, opts.UseMean)
			}
			for key, n := range sums.observed {
				stepsObserved[key] += n
				rs := rankSets[key]
				if rs == nil {
					rs = make(map[int]bool)
					rankSets[key] = rs
				}
				rs[p.Rank] = true
			}
			agg.WallTimes = append(agg.WallTimes, p.WallTime)
		}

		// Step (2): median over ranks.
		rr := repResult{values: make(map[string]map[measurement.Metric]StepValue)}
		allKeys := make(map[string]bool)
		for k := range perRankTrain {
			allKeys[k] = true
		}
		for k := range perRankVal {
			allKeys[k] = true
		}
		for key := range allKeys {
			byMetric := make(map[measurement.Metric]StepValue)
			for _, metric := range metricsFor(kinds[key]) {
				var sv StepValue
				if vs, ok := perRankTrain[key]; ok {
					sv.Train = reduce(vs[metric], opts.UseMean)
				}
				if vs, ok := perRankVal[key]; ok {
					sv.Validation = reduce(vs[metric], opts.UseMean)
				}
				byMetric[metric] = sv
			}
			rr.values[key] = byMetric
		}
		repResults = append(repResults, rr)
	}

	// Step (3): median over repetitions; assemble kernel aggregates.
	allKeys := make(map[string]bool)
	for _, rr := range repResults {
		for k := range rr.values {
			allKeys[k] = true
		}
	}
	for key := range allKeys {
		k := &KernelAggregate{
			Callpath:      key,
			Name:          names[key],
			Kind:          kinds[key],
			PerRep:        make(map[measurement.Metric][]StepValue),
			Value:         make(map[measurement.Metric]StepValue),
			Ranks:         len(rankSets[key]),
			StepsObserved: stepsObserved[key],
		}
		for _, metric := range metricsFor(k.Kind) {
			perRep := make([]StepValue, 0, len(repResults))
			for _, rr := range repResults {
				if byMetric, ok := rr.values[key]; ok {
					perRep = append(perRep, byMetric[metric])
				} else {
					perRep = append(perRep, StepValue{})
				}
			}
			k.PerRep[metric] = perRep
			trainVals := make([]float64, len(perRep))
			valVals := make([]float64, len(perRep))
			for i, sv := range perRep {
				trainVals[i] = sv.Train
				valVals[i] = sv.Validation
			}
			k.Value[metric] = StepValue{
				Train:      reduce(trainVals, opts.UseMean),
				Validation: reduce(valVals, opts.UseMean),
			}
		}
		agg.Kernels[key] = k
	}

	// Category sums (Eq. 6 inputs): sum the member kernels' aggregates.
	// Iterate in sorted callpath order — floating-point addition is not
	// associative, and map order would make the sums run-to-run unstable.
	for _, k := range agg.SortedKernels() {
		cat := k.Category()
		if cat == calltree.CategoryUnknown {
			continue
		}
		byMetric := agg.Categories[cat]
		if byMetric == nil {
			byMetric = make(map[measurement.Metric]StepValue)
			agg.Categories[cat] = byMetric
		}
		perRepByMetric := agg.CategoriesPerRep[cat]
		if perRepByMetric == nil {
			perRepByMetric = make(map[measurement.Metric][]StepValue)
			agg.CategoriesPerRep[cat] = perRepByMetric
		}
		for metric, sv := range k.Value {
			byMetric[metric] = byMetric[metric].Add(sv)
			perRep := perRepByMetric[metric]
			if perRep == nil {
				perRep = make([]StepValue, agg.Reps)
			}
			for i, rv := range k.PerRep[metric] {
				if i < len(perRep) {
					perRep[i] = perRep[i].Add(rv)
				}
			}
			perRepByMetric[metric] = perRep
		}
	}
	return agg, nil
}

// oracleWarmupEpochs is the copy-and-sort warm-up selection the oracle
// keeps: the lowest `skip` epoch indices, but never every epoch.
func oracleWarmupEpochs(tr *trace.Trace, skip int) []int {
	if skip <= 0 || len(tr.Epochs) <= skip {
		if len(tr.Epochs) > 1 && skip > 0 {
			skip = len(tr.Epochs) - 1
		} else {
			return nil
		}
	}
	idx := make([]int, 0, skip)
	sorted := append([]trace.EpochSpan(nil), tr.Epochs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i := 0; i < skip && i < len(sorted); i++ {
		idx = append(idx, sorted[i].Index)
	}
	return idx
}

// sortedCallpathKeys returns m's callpath keys in sorted order, so
// per-rank accumulation visits kernels deterministically regardless of
// map iteration order.
func sortedCallpathKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addRankValue reduces per-step sums to one value per rank (step (2)'s
// input ṽ_kr) and appends it to the per-rank collection.
func addRankValue(perRank map[string]map[measurement.Metric][]float64, key string, byMetric map[measurement.Metric][]float64, useMean bool) {
	dst := perRank[key]
	if dst == nil {
		dst = make(map[measurement.Metric][]float64)
		perRank[key] = dst
	}
	for metric, stepVals := range byMetric {
		dst[metric] = append(dst[metric], reduce(stepVals, useMean))
	}
}
