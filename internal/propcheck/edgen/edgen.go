// Package edgen provides propcheck generators for Extra-Deep's domain
// types: measurement points, per-rank traces with NVTX step/epoch spans,
// and profile sets following the canonical app.x{config}.mpi{rank}.r{rep}
// naming. Every generated value satisfies the type's own Validate
// contract, so invariant suites probe behaviour on valid inputs rather
// than tripping over boundary rejections. It imports nothing above the
// profile layer, so the aggregation and epoch packages can use it from
// their in-package tests.
package edgen

import (
	"fmt"

	"extradeep/internal/calltree"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/trace"
)

// kernelPool is the kernel vocabulary generated traces draw from; names
// and kinds mirror what the NSight-style toolchain records (Table 2).
var kernelPool = []struct {
	name string
	kind calltree.Kind
}{
	{"EigenMetaKernel", calltree.KindCUDA},
	{"volta_sgemm_128x64_nn", calltree.KindCUDA},
	{"cudnn::winograd_fwd", calltree.KindCuDNN},
	{"MPI_Allreduce", calltree.KindMPI},
	{"ncclAllReduce", calltree.KindNCCL},
	{"cudaMemcpyHtoD", calltree.KindMemcpy},
}

// appPool is the application-name vocabulary for profile generation.
var appPool = []string{"cifar10", "mnist", "imdb", "resnet"}

// AppName generates an application name from a fixed pool.
func AppName() propcheck.Gen[string] {
	return propcheck.Gen[string]{
		Generate: func(r *propcheck.Rand) string { return appPool[r.Intn(len(appPool))] },
	}
}

// Point generates a measurement point with dims power-of-two-ish positive
// coordinates (the shapes real rank/batch configurations take), shrinking
// each coordinate toward 1.
func Point(dims int) propcheck.Gen[measurement.Point] {
	coord := propcheck.Gen[float64]{
		Generate: func(r *propcheck.Rand) float64 {
			v := float64(int64(1) << r.IntRange(0, 10)) // 1 … 1024
			if r.Intn(4) == 0 {
				v /= 2 // occasionally a fractional value like 0.5
			}
			return v
		},
		Shrink: func(v float64) []float64 {
			if v > 1 {
				return []float64{1, v / 2}
			}
			return nil
		},
	}
	slice := propcheck.SliceOf(coord, dims, dims)
	return propcheck.Gen[measurement.Point]{
		Generate: func(r *propcheck.Rand) measurement.Point {
			return measurement.Point(slice.Generate(r))
		},
		Shrink: func(v measurement.Point) []measurement.Point {
			var out []measurement.Point
			for _, c := range slice.Shrink([]float64(v)) {
				out = append(out, measurement.Point(c))
			}
			return out
		},
		Describe: func(v measurement.Point) string { return v.Key() },
	}
}

// TraceShape bounds the structure of generated traces.
type TraceShape struct {
	// MaxEpochs bounds the epoch count (≥ 1, default 3).
	MaxEpochs int
	// MaxTrainSteps and MaxValSteps bound the per-epoch step counts
	// (train ≥ 1, default 4; validation ≥ 0, default 2).
	MaxTrainSteps int
	MaxValSteps   int
	// MaxEventsPerStep bounds the kernel events inside one step
	// (default 4).
	MaxEventsPerStep int
	// Irregular adds the shapes real profiles have and the default traces
	// avoid: each trace draws on a random subset of the kernel pool, and
	// events may sit between steps or after the last one, have an empty
	// callpath, coalesce invocations (Count > 1) or carry a kind other
	// than their key's usual one; the event order is shuffled. ProfileSet
	// also drops some (rank, repetition) profiles. Traces still pass
	// Validate. Off, generation draws the same random numbers as before
	// the option existed, so existing seeds replay unchanged.
	Irregular bool
}

func (s TraceShape) withDefaults() TraceShape {
	if s.MaxEpochs <= 0 {
		s.MaxEpochs = 3
	}
	if s.MaxTrainSteps <= 0 {
		s.MaxTrainSteps = 4
	}
	if s.MaxValSteps < 0 {
		s.MaxValSteps = 0
	} else if s.MaxValSteps == 0 {
		s.MaxValSteps = 2
	}
	if s.MaxEventsPerStep <= 0 {
		s.MaxEventsPerStep = 4
	}
	return s
}

// Trace generates a structurally valid per-rank trace: NVTX epoch spans
// containing ordered, non-overlapping train then validation step spans,
// each step holding kernel events drawn from a fixed vocabulary with
// finite non-negative timings. Generated traces always pass
// (*trace.Trace).Validate.
func Trace(shape TraceShape) propcheck.Gen[trace.Trace] {
	shape = shape.withDefaults()
	return propcheck.Gen[trace.Trace]{
		Generate: func(r *propcheck.Rand) trace.Trace {
			tr := trace.Trace{Rank: r.IntRange(0, 7)}
			cursor := r.Float64Range(0, 0.5)
			epochs := r.IntRange(1, shape.MaxEpochs)
			trainSteps := r.IntRange(1, shape.MaxTrainSteps)
			valSteps := r.IntRange(0, shape.MaxValSteps)
			pool := kernelPool
			if shape.Irregular {
				pool = nil
				for _, i := range r.Perm(len(kernelPool))[:r.IntRange(1, len(kernelPool))] {
					pool = append(pool, kernelPool[i])
				}
			}
			event := func(phase trace.Phase, start float64) trace.Event {
				kern := pool[r.Intn(len(pool))]
				ev := trace.Event{
					Name:     kern.name,
					Kind:     kern.kind,
					Callpath: "App->" + phase.String() + "->" + kern.name,
					Start:    start,
					Duration: r.Float64Range(0, 0.01),
				}
				if kern.kind == calltree.KindMemcpy {
					ev.Bytes = float64(r.IntRange(0, 1<<20))
				}
				if shape.Irregular {
					irregular(r, &ev)
				}
				return ev
			}
			async := func(phase trace.Phase, from, to float64) {
				for k := r.IntRange(0, 2); k > 0; k-- {
					tr.Events = append(tr.Events, event(phase, r.Float64Range(from, to)))
				}
			}
			for e := 0; e < epochs; e++ {
				epochStart := cursor
				emit := func(phase trace.Phase, idx int) {
					stepStart := cursor
					t := stepStart
					for k := r.IntRange(1, shape.MaxEventsPerStep); k > 0; k-- {
						ev := event(phase, t)
						tr.Events = append(tr.Events, ev)
						t = ev.End() + r.Float64Range(0, 0.001)
					}
					cursor = t + 0.001
					tr.Steps = append(tr.Steps, trace.StepSpan{
						Epoch: e, Index: idx, Phase: phase, Start: stepStart, End: cursor,
					})
					gap := r.Float64Range(0, 0.002) // inter-step gap
					if shape.Irregular {
						async(phase, cursor, cursor+gap)
					}
					cursor += gap
				}
				for s := 0; s < trainSteps; s++ {
					emit(trace.PhaseTrain, s)
				}
				for s := 0; s < valSteps; s++ {
					emit(trace.PhaseValidation, s)
				}
				tr.Epochs = append(tr.Epochs, trace.EpochSpan{Index: e, Start: epochStart, End: cursor})
				cursor += 0.001
			}
			if shape.Irregular {
				async(trace.PhaseTrain, cursor, cursor+0.01) // after the last step
				r.Shuffle(len(tr.Events), func(i, j int) { tr.Events[i], tr.Events[j] = tr.Events[j], tr.Events[i] })
			}
			return tr
		},
		Describe: func(tr trace.Trace) string {
			return fmt.Sprintf("trace{rank=%d events=%d steps=%d epochs=%d}",
				tr.Rank, len(tr.Events), len(tr.Steps), len(tr.Epochs))
		},
	}
}

// irregular mutates a generated event into one of the shapes real
// profiles have: an empty callpath (the key becomes the name), coalesced
// invocations, or a kind other than its key's usual one — including
// memory kinds on compute keys and the unknown kind.
func irregular(r *propcheck.Rand, ev *trace.Event) {
	if r.Intn(4) == 0 {
		ev.Callpath = ""
	}
	if r.Intn(4) == 0 {
		ev.Count = r.IntRange(2, 8)
	}
	if r.Intn(4) == 0 {
		ev.Kind = calltree.Kind(r.IntRange(int(calltree.KindUnknown), int(calltree.KindCUDAAPI)))
		ev.Bytes = float64(r.IntRange(0, 1<<20))
	}
}

// SetShape bounds the structure of generated profile sets.
type SetShape struct {
	// Dims is the configuration dimensionality (default 1).
	Dims int
	// MaxConfigs, MaxRanks, MaxReps bound the set extent (defaults 4, 4,
	// 3; minimum 1 config, 1 rank, 1 rep each).
	MaxConfigs int
	MaxRanks   int
	MaxReps    int
	// Trace bounds the per-profile trace.
	Trace TraceShape
}

func (s SetShape) withDefaults() SetShape {
	if s.Dims <= 0 {
		s.Dims = 1
	}
	if s.MaxConfigs <= 0 {
		s.MaxConfigs = 4
	}
	if s.MaxRanks <= 0 {
		s.MaxRanks = 4
	}
	if s.MaxReps <= 0 {
		s.MaxReps = 3
	}
	return s
}

// Profile generates one valid single-rank profile (rank 0, rep 1) with a
// one-dimensional configuration.
func Profile() propcheck.Gen[*profile.Profile] {
	set := ProfileSet(SetShape{MaxConfigs: 1, MaxRanks: 1, MaxReps: 1})
	return propcheck.Gen[*profile.Profile]{
		Generate: func(r *propcheck.Rand) *profile.Profile { return set.Generate(r)[0] },
		Describe: func(p *profile.Profile) string { return p.FileName() },
	}
}

// ProfileSet generates the profiles of one application measured at
// several configurations, each with a full rank × repetition grid and
// canonical (app, config, rank, rep) identities — the input shape the
// ingest and aggregation pipelines expect. Every profile passes Validate.
// Shrinking drops trailing configurations down to one.
func ProfileSet(shape SetShape) propcheck.Gen[[]*profile.Profile] {
	shape = shape.withDefaults()
	point := Point(shape.Dims)
	tgen := Trace(shape.Trace)
	return propcheck.Gen[[]*profile.Profile]{
		Generate: func(r *propcheck.Rand) []*profile.Profile {
			app := appPool[r.Intn(len(appPool))]
			params := make([]string, shape.Dims)
			for i := range params {
				params[i] = fmt.Sprintf("x%d", i+1)
			}
			nConfigs := r.IntRange(1, shape.MaxConfigs)
			ranks := r.IntRange(1, shape.MaxRanks)
			reps := r.IntRange(1, shape.MaxReps)
			seen := map[string]bool{}
			var out []*profile.Profile
			for c := 0; c < nConfigs; c++ {
				pt := point.Generate(r)
				if seen[pt.Key()] {
					continue // collapsing duplicate configurations keeps identities unique
				}
				seen[pt.Key()] = true
				for rep := 1; rep <= reps; rep++ {
					for rank := 0; rank < ranks; rank++ {
						if shape.Trace.Irregular && rep+rank > 1 && r.Intn(5) == 0 {
							continue // a (rank, repetition) profile missing
						}
						tr := tgen.Generate(r)
						tr.Rank = rank
						out = append(out, &profile.Profile{
							App:      app,
							Params:   append([]string(nil), params...),
							Config:   append([]float64(nil), pt...),
							Rank:     rank,
							Rep:      rep,
							WallTime: tr.TotalDuration(),
							Sampled:  false,
							Trace:    tr,
						})
					}
				}
			}
			return out
		},
		Shrink: func(v []*profile.Profile) [][]*profile.Profile {
			// Drop the profiles of the last configuration while more than
			// one configuration remains.
			groups := profile.GroupByConfig(v)
			keys := profile.SortedKeys(groups)
			if len(keys) <= 1 {
				return nil
			}
			var out []*profile.Profile
			for _, k := range keys[:len(keys)-1] {
				out = append(out, groups[k]...)
			}
			return [][]*profile.Profile{out}
		},
		Describe: func(v []*profile.Profile) string {
			groups := profile.GroupByConfig(v)
			return fmt.Sprintf("profiles{n=%d configs=%d}", len(v), len(groups))
		},
	}
}
