package epoch_test

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"extradeep/internal/aggregate"
	"extradeep/internal/epoch"
	"extradeep/internal/propcheck"
)

// TestPropStepsMatchBigIntOracle: the float floor arithmetic of Eqs. 2–3,
// n = ⌊D/(G/M)/B⌋, agrees with exact big-int division D·M ÷ (G·B) across
// the generated parameter range (epochParams bounds it so both sides are exact).
func TestPropStepsMatchBigIntOracle(t *testing.T) {
	propcheck.Check(t, epochParams(), func(p epoch.Params) error {
		for _, c := range []struct {
			phase   string
			samples float64
			got     int
		}{
			{"train", p.TrainSamples, p.TrainSteps()},
			{"validation", p.ValSamples, p.ValSteps()},
		} {
			num := new(big.Int).Mul(big.NewInt(int64(c.samples)), big.NewInt(int64(p.ModelParallel)))
			den := new(big.Int).Mul(big.NewInt(int64(p.DataParallel)), big.NewInt(int64(p.BatchSize)))
			want := new(big.Int).Quo(num, den)
			if !want.IsInt64() || want.Int64() != int64(c.got) {
				return fmt.Errorf("%s steps: float floor gives %d, big-int oracle %s", c.phase, c.got, want)
			}
		}
		return nil
	})
}

// stepDelta pairs a valid training setup with an integer scaling factor
// for the monotonicity checks below.
type stepDelta struct {
	p epoch.Params
	f float64
}

func stepDeltaGen() propcheck.Gen[stepDelta] {
	pg := epochParams()
	return propcheck.Gen[stepDelta]{
		Generate: func(r *propcheck.Rand) stepDelta {
			return stepDelta{p: pg.Generate(r), f: float64(r.IntRange(1, 8))}
		},
		Describe: func(d stepDelta) string {
			return fmt.Sprintf("{%s f=%g}", describeParams(d.p), d.f)
		},
	}
}

func describeParams(p epoch.Params) string {
	return fmt.Sprintf("Params{B=%g Dt=%g Dv=%g G=%g M=%g}",
		p.BatchSize, p.TrainSamples, p.ValSamples, p.DataParallel, p.ModelParallel)
}

// TestPropStepsMonotoneInSetup: Eq. 2 is monotone non-decreasing in the
// dataset size D_t and the model parallelism M, monotone non-increasing in
// the batch size B and the data parallelism G, and invariant when G and M
// scale together (G/M fixed).
func TestPropStepsMonotoneInSetup(t *testing.T) {
	propcheck.Check(t, stepDeltaGen(), func(d stepDelta) error {
		base := d.p.TrainSteps()

		q := d.p
		q.TrainSamples *= d.f
		if q.TrainSteps() < base {
			return fmt.Errorf("steps decreased from %d to %d when D_t grew ×%g", base, q.TrainSteps(), d.f)
		}
		q = d.p
		q.BatchSize *= d.f
		if q.TrainSteps() > base {
			return fmt.Errorf("steps increased from %d to %d when B grew ×%g", base, q.TrainSteps(), d.f)
		}
		q = d.p
		q.DataParallel *= d.f
		if q.TrainSteps() > base {
			return fmt.Errorf("steps increased from %d to %d when G grew ×%g", base, q.TrainSteps(), d.f)
		}
		q = d.p
		q.ModelParallel *= d.f
		if q.TrainSteps() < base {
			return fmt.Errorf("steps decreased from %d to %d when M grew ×%g", base, q.TrainSteps(), d.f)
		}
		q = d.p
		q.DataParallel *= d.f
		q.ModelParallel *= d.f
		if q.TrainSteps() != base {
			return fmt.Errorf("steps changed from %d to %d though G/M is fixed", base, q.TrainSteps())
		}
		return nil
	})
}

// kernelCase pairs a training setup with two step values and a scale, for
// the linearity/homogeneity invariants of Eq. 4.
type kernelCase struct {
	p              epoch.Params
	t1, v1, t2, v2 float64
	k              float64
}

func kernelCaseGen() propcheck.Gen[kernelCase] {
	pg := epochParams()
	fg := propcheck.Float64Range(-1e6, 1e6)
	return propcheck.Gen[kernelCase]{
		Generate: func(r *propcheck.Rand) kernelCase {
			return kernelCase{
				p:  pg.Generate(r),
				t1: fg.Generate(r), v1: fg.Generate(r),
				t2: fg.Generate(r), v2: fg.Generate(r),
				k: r.Float64Range(-100, 100),
			}
		},
		Describe: func(c kernelCase) string {
			return fmt.Sprintf("{%s sv1=(%g,%g) sv2=(%g,%g) k=%g}",
				describeParams(c.p), c.t1, c.v1, c.t2, c.v2, c.k)
		},
	}
}

// TestPropKernelValueLinearity (migrated from testing/quick): the
// per-epoch value of a sum of kernels equals the sum of per-epoch values —
// the property that makes category aggregation and per-kernel modeling
// consistent (Eqs. 4 and 6). Now checked for arbitrary valid setups, not
// one fixed parameter set.
func TestPropKernelValueLinearity(t *testing.T) {
	propcheck.Check(t, kernelCaseGen(), func(c kernelCase) error {
		a := aggregate.StepValue{Train: c.t1, Validation: c.v1}
		b := aggregate.StepValue{Train: c.t2, Validation: c.v2}
		sum := epoch.KernelValue(a.Add(b), c.p)
		parts := epoch.KernelValue(a, c.p) + epoch.KernelValue(b, c.p)
		if math.Abs(sum-parts) > 1e-9*(1+math.Abs(sum)) {
			return fmt.Errorf("F(a+b)=%g but F(a)+F(b)=%g", sum, parts)
		}
		return nil
	})
}

// TestPropKernelValueHomogeneity (migrated from testing/quick):
// KernelValue scales linearly with the step value.
func TestPropKernelValueHomogeneity(t *testing.T) {
	propcheck.Check(t, kernelCaseGen(), func(c kernelCase) error {
		sv := aggregate.StepValue{Train: c.t1, Validation: c.v1}
		scaled := aggregate.StepValue{Train: c.t1 * c.k, Validation: c.v1 * c.k}
		lhs := epoch.KernelValue(scaled, c.p)
		rhs := c.k * epoch.KernelValue(sv, c.p)
		if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(rhs)) {
			return fmt.Errorf("F(k·v)=%g but k·F(v)=%g", lhs, rhs)
		}
		return nil
	})
}

// TestPropWeakScalingStepInvariance (migrated from testing/quick): weak
// scaling (D_t ∝ workers) keeps the step count invariant for any rank
// count, batch size and base dataset.
func TestPropWeakScalingStepInvariance(t *testing.T) {
	type wsCase struct{ ranks, batch, samples int }
	g := propcheck.Gen[wsCase]{
		Generate: func(r *propcheck.Rand) wsCase {
			return wsCase{
				ranks:   r.IntRange(2, 64),
				batch:   r.IntRange(1, 256),
				samples: r.IntRange(1, 100000),
			}
		},
	}
	propcheck.Check(t, g, func(c wsCase) error {
		base := epoch.Params{
			BatchSize: float64(c.batch), TrainSamples: float64(c.samples),
			DataParallel: 1, ModelParallel: 1,
		}
		scaled := base
		scaled.TrainSamples = float64(c.samples) * float64(c.ranks)
		scaled.DataParallel = float64(c.ranks)
		if base.TrainSteps() != scaled.TrainSteps() {
			return fmt.Errorf("weak scaling changed steps: %d → %d at %d ranks",
				base.TrainSteps(), scaled.TrainSteps(), c.ranks)
		}
		return nil
	})
}

// TestPropEpochParamsWithinOracleRange: generated setups validate, keep M
// dividing G, and stay inside the exactly-representable float range the
// big-int oracle comparison relies on.
func TestPropEpochParamsWithinOracleRange(t *testing.T) {
	propcheck.Check(t, epochParams(), func(p epoch.Params) error {
		if err := p.Validate(); err != nil {
			return err
		}
		if math.Mod(p.DataParallel, p.ModelParallel) != 0 {
			return fmt.Errorf("M=%g does not divide G=%g", p.ModelParallel, p.DataParallel)
		}
		for _, v := range []float64{p.BatchSize, p.TrainSamples, p.ValSamples, p.DataParallel, p.ModelParallel} {
			//edlint:ignore floateq integrality check: a generated count must be exactly its own truncation
			if v != math.Trunc(v) || v > 1e9 {
				return fmt.Errorf("value %g outside the exact integer range", v)
			}
		}
		return nil
	})
}

// epochParams generates valid training-setup parameters within the exact
// float range of Eqs. 2–4: B ∈ [1,1024], D_t ≤ 1e9, D_v ≤ 1e7, M ∈
// {1,2,4,8} and G a multiple of M with G/M ≤ 4096 — so the floor
// arithmetic is exactly representable and comparable against a big-int
// oracle. Shrinking reduces the dataset sizes and parallel degrees.
func epochParams() propcheck.Gen[epoch.Params] {
	return propcheck.Gen[epoch.Params]{
		Generate: func(r *propcheck.Rand) epoch.Params {
			m := float64(int64(1) << r.IntRange(0, 3)) // 1, 2, 4, 8
			return epoch.Params{
				BatchSize:     float64(r.IntRange(1, 1024)),
				TrainSamples:  float64(r.Int64Range(0, 1_000_000_000)),
				ValSamples:    float64(r.Int64Range(0, 10_000_000)),
				DataParallel:  m * float64(r.IntRange(1, 4096)),
				ModelParallel: m,
			}
		},
		Shrink: func(p epoch.Params) []epoch.Params {
			var out []epoch.Params
			add := func(q epoch.Params) {
				if q.Validate() == nil && q != p {
					out = append(out, q)
				}
			}
			q := p
			q.TrainSamples = 0
			add(q)
			q = p
			q.TrainSamples = float64(int64(p.TrainSamples) / 2)
			add(q)
			q = p
			q.ValSamples = 0
			add(q)
			q = p
			q.BatchSize = 1
			add(q)
			q = p
			q.DataParallel = p.ModelParallel
			add(q)
			q = p
			//edlint:ignore divguard ModelParallel is generated as 1<<k with k ≥ 0, never zero
			q.DataParallel, q.ModelParallel = p.DataParallel/p.ModelParallel, 1
			add(q)
			return out
		},
		Describe: func(p epoch.Params) string {
			return fmt.Sprintf("Params{B=%g Dt=%g Dv=%g G=%g M=%g}",
				p.BatchSize, p.TrainSamples, p.ValSamples, p.DataParallel, p.ModelParallel)
		},
	}
}
