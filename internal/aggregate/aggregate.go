// Package aggregate implements Extra-Deep's measurement preprocessing and
// aggregation pipeline (Fig. 2 of the paper), which makes the efficient
// sampling strategy possible:
//
//  1. Within each profiled training/validation step, all metric values of a
//     kernel's executions are summed (Eq. 1), yielding v_nkr for step n,
//     rank k, repetition r. Kernels executed asynchronously between two
//     steps are attributed to the following step and aggregated the same
//     way.
//  2. Per rank and repetition, the median over steps gives ṽ_kr.
//  3. Per repetition, the median over ranks gives Ṽ_r, and the median over
//     repetitions gives Ṽ.
//  4. Kernels observed in fewer than five application configurations are
//     filtered out before modeling (handled by
//     measurement.Experiment.FilterInsufficient).
//
// Training and validation steps are aggregated separately because the
// epoch extrapolation (Eq. 4) weighs them with different step counts.
// The first epoch is treated as warm-up and excluded, mirroring the
// paper's handling of framework initialization effects.
//
// A kernel is keyed by its callpath, or its name when the callpath is
// empty, and takes the kind and name of its last kept event. Memory
// operations carry bytes besides time and visits. A key that mixes kinds
// has per-step bytes in a trace's phase if any of its events there is a
// memory operation, takes the rank median of bytes over the ranks that
// have them, and keeps bytes for a repetition (and overall) only if its
// kind at that point is a memory kind. A kernel absent from a repetition
// contributes zero to the repetition median. Keys get dense int32 IDs in
// first-seen order that index flat tables (DESIGN.md §18).
package aggregate

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// Options configures the aggregation pipeline.
type Options struct {
	// SkipWarmupEpochs is the number of leading epochs whose measurements
	// are discarded. The default (when the trace has more than one epoch)
	// is 1, per the paper. Traces with a single epoch are used as-is.
	SkipWarmupEpochs int
	// UseMean aggregates with means instead of medians across steps,
	// ranks and repetitions (for the noise-resilience ablation).
	UseMean bool
}

// DefaultOptions returns the paper's configuration: one warm-up epoch
// skipped, median aggregation.
func DefaultOptions() Options { return Options{SkipWarmupEpochs: 1} }

// StepValue carries a per-step metric value separated by phase.
type StepValue struct {
	// Train is the per-training-step value.
	Train float64
	// Validation is the per-validation-step value.
	Validation float64
}

// Add returns the component-wise sum of two step values.
func (v StepValue) Add(w StepValue) StepValue {
	return StepValue{Train: v.Train + w.Train, Validation: v.Validation + w.Validation}
}

// KernelAggregate is the fully aggregated measurement of one kernel at one
// application configuration.
type KernelAggregate struct {
	// Callpath identifies the kernel, e.g. "App->train->EigenMetaKernel".
	Callpath string
	// Name is the kernel's own name.
	Name string
	// Kind classifies the kernel.
	Kind calltree.Kind
	// PerRep holds, per metric, the per-repetition aggregated values Ṽ_r
	// (median over steps, then ranks) in repetition order.
	PerRep map[measurement.Metric][]StepValue
	// Value holds, per metric, the final aggregate Ṽ (median over
	// repetitions of PerRep).
	Value map[measurement.Metric]StepValue
	// Ranks is the number of distinct ranks the kernel was observed on.
	Ranks int
	// StepsObserved is the number of profiled steps (across phases) the
	// kernel was observed in, summed over ranks and repetitions; a kernel
	// seen in only one step or rank is usually performance-irrelevant.
	StepsObserved int
}

// Category returns the kernel's phase category.
func (k *KernelAggregate) Category() calltree.Category { return calltree.CategoryOf(k.Kind) }

// ConfigAggregate is the aggregation result for one application
// configuration (one measurement point), the "Extra-Deep object" of Fig. 1.
type ConfigAggregate struct {
	// App is the application name.
	App string
	// Params are the execution-parameter names.
	Params []string
	// Point is the application configuration.
	Point measurement.Point
	// Kernels maps callpath → kernel aggregate.
	Kernels map[string]*KernelAggregate
	// Categories holds, per phase category and metric, the sum of the
	// member kernels' final aggregates (the paper's Ṽ_comp, Ṽ_comm,
	// Ṽ_mem of Eq. 6) and the corresponding per-repetition sums.
	Categories map[calltree.Category]map[measurement.Metric]StepValue
	// CategoriesPerRep mirrors Categories per repetition, for run-to-run
	// variation analysis.
	CategoriesPerRep map[calltree.Category]map[measurement.Metric][]StepValue
	// Reps is the number of measurement repetitions aggregated.
	Reps int
	// TrainSteps and ValidationSteps are the profiled step counts per
	// epoch actually observed (after warm-up removal), per repetition of
	// rank 0 — used for sanity checks and overhead accounting.
	TrainSteps, ValidationSteps int
	// WallTimes are the per-profile wall-clock times, for profiling
	// overhead accounting (Fig. 8).
	WallTimes []float64
}

// kernelKey returns the aggregation key for an event: the callpath when
// set, the bare name otherwise.
func kernelKey(e trace.Event) string {
	if e.Callpath != "" {
		return e.Callpath
	}
	return e.Name
}

// Metric slots of the dense tables. Every row stores all three at a fixed
// stride; a kind records the first metricCount of them.
const (
	slotTime = iota
	slotVisits
	slotBytes
	nSlots
)

// slotMetric names the metric each slot holds.
var slotMetric = [nSlots]measurement.Metric{measurement.MetricTime, measurement.MetricVisits, measurement.MetricBytes}

// metricCount returns how many leading slots a kernel kind records:
// memory operations additionally carry transferred bytes.
func metricCount(kind calltree.Kind) int {
	if calltree.CategoryOf(kind) == calltree.CategoryMemory {
		return nSlots
	}
	return slotBytes
}

// kernel is the per-call state of one dense kernel ID.
type kernel struct {
	key, name string
	kind      calltree.Kind // of the last kept event so far
	observed  int           // StepsObserved
	row       [2]int32      // row per phase in the current trace, -1 if none
	bytes     [2]bool       // whether that row saw a memory operation
}

// slot places a step in the per-phase tables: its phase and its position
// among that phase's kept steps. pos is -1 for a step of a skipped epoch
// or of no known phase.
type slot struct{ phase, pos int32 }

// phaseTable holds step (1)'s sums for one trace and phase at
// sums[(row*nSlots+slot)*steps+pos].
type phaseTable struct {
	steps int
	ids   []int32 // kernel per row
	sums  []float64
}

// dense is the state of one Aggregate call. The rank tables are indexed by
// group g = id*2+phase and the profile's position within its repetition
// (stride: the widest repetition); repVals by id, slot and repetition.
type dense struct {
	useMean     bool
	reps        int
	ranks       int   // widest repetition
	rankIDs     []int // distinct ranks of the call, sorted
	rankWords   int   // uint64 words per ID in onRank
	ids         map[string]int32
	kernels     []kernel
	slots       []slot
	phases      [2]phaseTable
	rankVals    []float64   // ṽ_kr of the current repetition
	rankN       []uint8     // slots recorded per (g, position); 0 when absent
	onRank      []uint64    // per ID, the set of ranks it was observed on
	repVals     []StepValue // Ṽ_r, the backing array of every PerRep
	buf, sorted []float64
}

// grow extends xs with zero values to length n.
func grow[T any](xs []T, n int) []T {
	if n <= len(xs) {
		return xs
	}
	//edlint:ignore allocloop the make is folded into append's growslice, which allocates only when a reused table outgrows its capacity
	return append(xs, make([]T, n-len(xs))...)
}

// reduce returns the mean of xs, summed in order, or the median of a
// sorted scratch copy (mathutil.Median's bits); 0 for no values.
func (d *dense) reduce(xs []float64) float64 {
	if d.useMean {
		m, _ := mathutil.Mean(xs)
		return m
	}
	d.sorted = append(d.sorted[:0], xs...)
	m, _ := mathutil.MedianInPlace(d.sorted)
	return m
}

// slotSteps places each step of tr in the per-phase tables, in one pass,
// and returns the kept train and validation step counts.
func (d *dense) slotSteps(tr *trace.Trace, skipEpochs []int) (train, val int) {
	var n [2]int32
	d.slots = d.slots[:0]
	for _, st := range tr.Steps {
		sl := slot{pos: -1}
		if (st.Phase == trace.PhaseTrain || st.Phase == trace.PhaseValidation) && !slices.Contains(skipEpochs, st.Epoch) {
			sl = slot{phase: int32(st.Phase), pos: n[st.Phase]}
			n[st.Phase]++
		}
		d.slots = append(d.slots, sl)
	}
	d.phases[0].steps, d.phases[1].steps = int(n[0]), int(n[1])
	return int(n[0]), int(n[1])
}

// sumSteps is step (1) for one trace: it adds every kept event's metrics
// to its kernel's row at its step, in trace order, so each sum runs the
// same additions in the same order as one per (kernel, step, metric).
// Events need not be sorted: each is placed by its own step lookup.
//
//edlint:hotpath the per-event loop runs once per kernel event of every aggregated profile
func (d *dense) sumSteps(tr *trace.Trace) {
	for i := range tr.Events {
		e := &tr.Events[i]
		step := tr.StepOf(e.Start)
		if step == -1 {
			// Asynchronous kernel: attribute it to the following step,
			// per the paper's between-step handling.
			if step = tr.FollowingStep(e.Start); step == -1 {
				continue // after the last step: outside the profiled window
			}
		}
		sl := d.slots[step]
		if sl.pos < 0 {
			continue
		}
		key := kernelKey(*e)
		id, ok := d.ids[key]
		if !ok { // first sight: the next dense ID
			id = int32(len(d.kernels))
			d.ids[key] = id
			d.kernels = append(d.kernels, kernel{key: key, row: [2]int32{-1, -1}}) //edlint:ignore prealloc once per distinct key, not per event
		}
		k := &d.kernels[id]
		k.kind, k.name = e.Kind, e.Name
		t := &d.phases[sl.phase]
		if k.row[sl.phase] < 0 {
			k.row[sl.phase] = int32(len(t.ids))
			t.ids = append(t.ids, id) //edlint:ignore prealloc once per kernel and phase of a trace; reused across traces
			t.sums = grow(t.sums, len(t.ids)*nSlots*t.steps)
		}
		at := int(k.row[sl.phase])*nSlots*t.steps + int(sl.pos)
		t.sums[at+slotTime*t.steps] += e.Duration
		t.sums[at+slotVisits*t.steps] += e.Visits()
		if calltree.CategoryOf(e.Kind) == calltree.CategoryMemory {
			t.sums[at+slotBytes*t.steps] += e.Bytes
			k.bytes[sl.phase] = true
		}
	}
}

// reduceSteps reduces the current trace's rows over their kept steps into
// ṽ_kr, stored at the profile's position pos within its repetition. It
// also counts each kernel's observed steps (a step's visits sum is ≥ 1
// exactly when the kernel ran in it) and marks its rank, then empties the
// per-phase tables for the next trace.
func (d *dense) reduceSteps(pos, rank int) {
	d.rankVals = grow(d.rankVals, len(d.kernels)*2*nSlots*d.ranks)
	d.rankN = grow(d.rankN, len(d.kernels)*2*d.ranks)
	d.onRank = grow(d.onRank, len(d.kernels)*d.rankWords)
	bit := sort.SearchInts(d.rankIDs, rank)
	for p := range d.phases {
		t := &d.phases[p]
		for row, id := range t.ids {
			k := &d.kernels[id]
			n := slotBytes
			if k.bytes[p] {
				n = nSlots
			}
			g := int(id)*2 + p
			d.rankN[g*d.ranks+pos] = uint8(n)
			for s := 0; s < n; s++ {
				d.rankVals[(g*nSlots+s)*d.ranks+pos] = d.reduce(t.sums[(row*nSlots+s)*t.steps:][:t.steps])
			}
			for _, v := range t.sums[(row*nSlots+slotVisits)*t.steps:][:t.steps] {
				if v > 0 {
					k.observed++
				}
			}
			d.onRank[int(id)*d.rankWords+bit/64] |= 1 << (bit % 64)
			k.row[p], k.bytes[p] = -1, false
		}
		t.ids, t.sums = t.ids[:0], t.sums[:0]
	}
}

// reduceRanks is step (2) for repetition r: per kernel, per slot its kind
// records as of the end of r, and per phase, the median over the ranks
// that recorded the slot. A kernel absent from r, and a slot no rank
// recorded, get zero.
func (d *dense) reduceRanks(r int) {
	d.repVals = grow(d.repVals, len(d.kernels)*nSlots*d.reps)
	for id := range d.kernels {
		for s := 0; s < metricCount(d.kernels[id].kind); s++ {
			d.repVals[(id*nSlots+s)*d.reps+r] = StepValue{Train: d.rankMedian(id*2, s), Validation: d.rankMedian(id*2+1, s)}
		}
	}
	clear(d.rankN)
}

// rankMedian reduces group g's slot s over the ranks that recorded it, in
// rank order.
func (d *dense) rankMedian(g, s int) float64 {
	vals := d.rankVals[(g*nSlots+s)*d.ranks:][:d.ranks]
	d.buf = d.buf[:0]
	for pos, n := range d.rankN[g*d.ranks:][:d.ranks] {
		if s < int(n) {
			d.buf = append(d.buf, vals[pos])
		}
	}
	return d.reduce(d.buf)
}

// kernelAggregate is step (3) for one kernel: per slot its final kind
// records, the median over repetitions.
func (d *dense) kernelAggregate(id int) *KernelAggregate {
	k := &d.kernels[id]
	n := metricCount(k.kind)
	ka := &KernelAggregate{
		Callpath:      k.key,
		Name:          k.name,
		Kind:          k.kind,
		PerRep:        make(map[measurement.Metric][]StepValue, n),
		Value:         make(map[measurement.Metric]StepValue, n),
		StepsObserved: k.observed,
	}
	for _, w := range d.onRank[id*d.rankWords:][:d.rankWords] {
		ka.Ranks += bits.OnesCount64(w)
	}
	for s := 0; s < n; s++ {
		at := (id*nSlots + s) * d.reps
		perRep := d.repVals[at : at+d.reps : at+d.reps]
		d.buf = d.buf[:0]
		for _, sv := range perRep {
			d.buf = append(d.buf, sv.Train)
		}
		for _, sv := range perRep {
			d.buf = append(d.buf, sv.Validation)
		}
		ka.PerRep[slotMetric[s]] = perRep
		ka.Value[slotMetric[s]] = StepValue{Train: d.reduce(d.buf[:d.reps]), Validation: d.reduce(d.buf[d.reps:])}
	}
	return ka
}

// Aggregate runs the full pipeline on the profiles of one application
// configuration (all ranks, all repetitions of one measurement point).
// The profiles must agree on app, params and config.
func Aggregate(profiles []*profile.Profile, opts Options) (*ConfigAggregate, error) {
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
	d := &dense{useMean: opts.UseMean, ids: make(map[string]int32)}
	byRep := make(map[int][]*profile.Profile)
	for _, p := range profiles {
		byRep[p.Rep] = append(byRep[p.Rep], p)
		d.rankIDs = append(d.rankIDs, p.Rank)
	}
	reps := make([]int, 0, len(byRep))
	for r, group := range byRep {
		reps = append(reps, r)
		d.ranks = max(d.ranks, len(group))
	}
	sort.Ints(reps)
	slices.Sort(d.rankIDs)
	d.rankIDs = slices.Compact(d.rankIDs)
	d.reps, d.rankWords = len(reps), (len(d.rankIDs)+63)/64

	agg := &ConfigAggregate{
		App:              first.App,
		Params:           append([]string(nil), first.Params...),
		Point:            measurement.Point(first.Config).Clone(),
		Categories:       make(map[calltree.Category]map[measurement.Metric]StepValue),
		CategoriesPerRep: make(map[calltree.Category]map[measurement.Metric][]StepValue),
		Reps:             len(reps),
		WallTimes:        make([]float64, 0, len(profiles)),
	}
	for r, rep := range reps {
		group := byRep[rep]
		slices.SortStableFunc(group, func(a, b *profile.Profile) int { return cmp.Compare(a.Rank, b.Rank) })
		for pos, p := range group {
			tr := &p.Trace
			train, val := d.slotSteps(tr, warmupEpochs(tr, opts.SkipWarmupEpochs))
			if agg.TrainSteps == 0 && p.Rank == 0 {
				agg.TrainSteps, agg.ValidationSteps = train, val
			}
			d.sumSteps(tr)
			d.reduceSteps(pos, p.Rank)
			agg.WallTimes = append(agg.WallTimes, p.WallTime)
		}
		d.reduceRanks(r)
	}
	agg.Kernels = make(map[string]*KernelAggregate, len(d.kernels))
	for id := range d.kernels {
		agg.Kernels[d.kernels[id].key] = d.kernelAggregate(id)
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
				perRepByMetric[metric] = perRep
			}
			for i, rv := range k.PerRep[metric] {
				perRep[i] = perRep[i].Add(rv)
			}
		}
	}
	return agg, nil
}

// warmupEpochs returns the epoch indices to skip: the first `skip` epochs,
// but never all of them — at least one epoch of data must remain.
func warmupEpochs(tr *trace.Trace, skip int) []int {
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

// SortedKernels returns the aggregate's kernels sorted by callpath.
func (a *ConfigAggregate) SortedKernels() []*KernelAggregate {
	keys := make([]string, 0, len(a.Kernels))
	for k := range a.Kernels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*KernelAggregate, len(keys))
	for i, k := range keys {
		out[i] = a.Kernels[k]
	}
	return out
}
