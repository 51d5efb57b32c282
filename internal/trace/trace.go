// Package trace defines the raw profiling data produced for one MPI rank
// of one application run: a stream of timestamped kernel events plus the
// NVTX step and epoch spans injected by the instrumentation (step (1) of
// Fig. 2 in the paper). Times are seconds from process start.
package trace

import (
	"fmt"
	"math"
	"sort"

	"extradeep/internal/calltree"
)

// Phase distinguishes training from validation steps.
type Phase int

// The two step phases.
const (
	PhaseTrain Phase = iota
	PhaseValidation
)

// String returns "train" or "validation".
func (p Phase) String() string {
	if p == PhaseValidation {
		return "validation"
	}
	return "train"
}

// Event is one execution of a kernel or function.
type Event struct {
	// Name is the kernel name, e.g. "EigenMetaKernel" or "MPI_Allreduce".
	Name string `json:"name"`
	// Kind classifies the kernel's API.
	Kind calltree.Kind `json:"kind"`
	// Callpath locates the kernel in the call tree, e.g.
	// "App->train->EigenMetaKernel". Empty means top level.
	Callpath string `json:"callpath,omitempty"`
	// Start is the event begin time in seconds.
	Start float64 `json:"start"`
	// Duration is the event length in seconds.
	Duration float64 `json:"duration"`
	// Bytes is the number of transferred bytes for memory operations,
	// zero otherwise.
	Bytes float64 `json:"bytes,omitempty"`
	// Count is the number of kernel invocations this event represents.
	// Profilers emit one event per invocation (Count 0 or 1); the
	// simulator may coalesce the invocations of one kernel within a step
	// into a single event carrying their total duration and count.
	Count int `json:"count,omitempty"`
}

// Visits returns the number of invocations the event stands for (≥ 1).
func (e Event) Visits() float64 {
	if e.Count > 1 {
		return float64(e.Count)
	}
	return 1
}

// End returns the event end time.
func (e Event) End() float64 { return e.Start + e.Duration }

// Category returns the event's phase category.
func (e Event) Category() calltree.Category { return calltree.CategoryOf(e.Kind) }

// StepSpan is the NVTX-delimited extent of one training or validation step.
type StepSpan struct {
	// Epoch is the zero-based epoch index the step belongs to.
	Epoch int `json:"epoch"`
	// Index is the zero-based step index within the epoch.
	Index int `json:"index"`
	// Phase is train or validation.
	Phase Phase `json:"phase"`
	// Start and End delimit the span in seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Contains reports whether time t falls inside the span (start-inclusive).
func (s StepSpan) Contains(t float64) bool { return t >= s.Start && t < s.End }

// Duration returns the span length.
func (s StepSpan) Duration() float64 { return s.End - s.Start }

// EpochSpan is the NVTX-delimited extent of one epoch.
type EpochSpan struct {
	// Index is the zero-based epoch index.
	Index int `json:"index"`
	// Start and End delimit the span in seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Duration returns the span length.
func (s EpochSpan) Duration() float64 { return s.End - s.Start }

// Trace is the complete per-rank profiling output of one run.
type Trace struct {
	// Rank is the MPI rank the trace belongs to.
	Rank int `json:"rank"`
	// Events are the recorded kernel executions, ordered by start time.
	Events []Event `json:"events"`
	// Steps are the NVTX step spans, ordered by start time.
	Steps []StepSpan `json:"steps"`
	// Epochs are the NVTX epoch spans, ordered by start time.
	Epochs []EpochSpan `json:"epochs"`
}

// Sort orders events, steps and epochs by start time. Aggregation assumes
// sorted traces.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Start < t.Events[j].Start })
	sort.SliceStable(t.Steps, func(i, j int) bool { return t.Steps[i].Start < t.Steps[j].Start })
	sort.SliceStable(t.Epochs, func(i, j int) bool { return t.Epochs[i].Start < t.Epochs[j].Start })
}

// finite reports whether every value is a finite number (not NaN or ±Inf).
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: spans are well-formed, steps are
// non-overlapping and ordered, step spans nest inside their epoch span,
// events have non-negative durations, and every metric value is a finite
// number — a NaN or Inf admitted here would silently poison every median
// downstream, so corrupted measurements are rejected at the boundary.
func (t *Trace) Validate() error {
	for i, e := range t.Events {
		if !finite(e.Start, e.Duration, e.Bytes) {
			return fmt.Errorf("trace: event %d (%s) has non-finite metric value (start %v, duration %v, bytes %v)",
				i, e.Name, e.Start, e.Duration, e.Bytes)
		}
		if e.Duration < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative duration %v", i, e.Name, e.Duration)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative byte count %v", i, e.Name, e.Bytes)
		}
		if e.Count < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative invocation count %d", i, e.Name, e.Count)
		}
		if e.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
	}
	for i, s := range t.Steps {
		if !finite(s.Start, s.End) {
			return fmt.Errorf("trace: step %d/%d has non-finite bounds [%v, %v]", s.Epoch, s.Index, s.Start, s.End)
		}
		if s.End < s.Start {
			return fmt.Errorf("trace: step %d/%d ends before it starts", s.Epoch, s.Index)
		}
		if i > 0 && s.Start < t.Steps[i-1].End {
			return fmt.Errorf("trace: step %d/%d overlaps its predecessor", s.Epoch, s.Index)
		}
	}
	epochByIndex := make(map[int]EpochSpan, len(t.Epochs))
	for _, e := range t.Epochs {
		if !finite(e.Start, e.End) {
			return fmt.Errorf("trace: epoch %d has non-finite bounds [%v, %v]", e.Index, e.Start, e.End)
		}
		if e.End < e.Start {
			return fmt.Errorf("trace: epoch %d ends before it starts", e.Index)
		}
		epochByIndex[e.Index] = e
	}
	for _, s := range t.Steps {
		ep, ok := epochByIndex[s.Epoch]
		if !ok {
			return fmt.Errorf("trace: step %d/%d references missing epoch", s.Epoch, s.Index)
		}
		if s.Start < ep.Start || s.End > ep.End {
			return fmt.Errorf("trace: step %d/%d escapes its epoch span", s.Epoch, s.Index)
		}
	}
	return nil
}

// StepOf returns the index into Steps of the span containing time t, or
// -1 when t falls between steps (an asynchronous region).
func (t *Trace) StepOf(time float64) int {
	// Binary search on the sorted step starts.
	//edlint:ignore allocloop sort.Search and this predicate inline, so the closure never reaches the heap (go build -gcflags=-m)
	i := sort.Search(len(t.Steps), func(i int) bool { return t.Steps[i].End > time })
	if i < len(t.Steps) && t.Steps[i].Contains(time) {
		return i
	}
	return -1
}

// FollowingStep returns the index of the first step starting at or after
// time t, or -1 when no such step exists. Asynchronous kernels that fall
// between two steps are attributed to the following step, mirroring the
// paper's treatment of between-step kernels (Section 2.2).
func (t *Trace) FollowingStep(time float64) int {
	//edlint:ignore allocloop sort.Search and this predicate inline, so the closure never reaches the heap (go build -gcflags=-m)
	i := sort.Search(len(t.Steps), func(i int) bool { return t.Steps[i].Start >= time })
	if i < len(t.Steps) {
		return i
	}
	return -1
}

// StepsOfPhase returns the indices of all steps of the given phase in all
// epochs except those listed in skipEpochs (e.g. the warm-up epoch whose
// measurements are discarded).
func (t *Trace) StepsOfPhase(phase Phase, skipEpochs ...int) []int {
	skip := make(map[int]bool, len(skipEpochs))
	for _, e := range skipEpochs {
		skip[e] = true
	}
	var out []int
	for i, s := range t.Steps {
		if s.Phase == phase && !skip[s.Epoch] {
			out = append(out, i)
		}
	}
	return out
}

// TotalDuration returns the time between the first event/span start and
// the last event/span end, or 0 for an empty trace.
func (t *Trace) TotalDuration() float64 {
	var lo, hi float64
	set := false
	upd := func(start, end float64) {
		if !set {
			lo, hi, set = start, end, true
			return
		}
		if start < lo {
			lo = start
		}
		if end > hi {
			hi = end
		}
	}
	for _, e := range t.Events {
		upd(e.Start, e.End())
	}
	for _, s := range t.Steps {
		upd(s.Start, s.End)
	}
	for _, e := range t.Epochs {
		upd(e.Start, e.End)
	}
	if !set {
		return 0
	}
	return hi - lo
}
