package edgen

import (
	"fmt"
	"math"
	"testing"

	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/trace"
)

// TestPropGeneratedTracesAreValid: every generated trace satisfies the
// trace package's own structural Validate contract.
func TestPropGeneratedTracesAreValid(t *testing.T) {
	propcheck.Check(t, Trace(TraceShape{}), func(tr trace.Trace) error {
		return tr.Validate()
	})
}

// TestPropIrregularTracesAreValid: the irregular shape (async and
// trailing events, name keys, coalesced and mixed-kind events, shuffled
// order) still yields traces that pass Validate, and profile sets whose
// profiles pass Validate under unique identities.
func TestPropIrregularTracesAreValid(t *testing.T) {
	shape := SetShape{Trace: TraceShape{Irregular: true}}
	propcheck.Check(t, ProfileSet(shape), func(ps []*profile.Profile) error {
		seen := map[string]bool{}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				return err
			}
			if seen[p.FileName()] {
				return fmt.Errorf("duplicate identity %s", p.FileName())
			}
			seen[p.FileName()] = true
		}
		return nil
	})
}

// TestPropGeneratedProfileSetsAreValid: every profile in a generated set
// passes Validate, carries its canonical file-name identity, and
// identities are unique across the set.
func TestPropGeneratedProfileSetsAreValid(t *testing.T) {
	propcheck.Check(t, ProfileSet(SetShape{}), func(ps []*profile.Profile) error {
		if len(ps) == 0 {
			return fmt.Errorf("empty profile set")
		}
		seen := map[string]bool{}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				return err
			}
			name := p.FileName()
			if seen[name] {
				return fmt.Errorf("duplicate identity %s", name)
			}
			seen[name] = true
			app, config, rank, rep, ok := profile.ParseFileName(name)
			if !ok || app != p.App || rank != p.Rank || rep != p.Rep || len(config) != len(p.Config) {
				return fmt.Errorf("file name %s does not round-trip", name)
			}
		}
		return nil
	})
}

// TestPropGeneratedPointsAreCanonical: points have the requested
// dimensionality and positive finite coordinates.
func TestPropGeneratedPointsAreCanonical(t *testing.T) {
	propcheck.Check(t, Point(2), func(pt measurement.Point) error {
		if len(pt) != 2 {
			return fmt.Errorf("point %v has %d dims, want 2", pt, len(pt))
		}
		for _, v := range pt {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("coordinate %v not positive finite", v)
			}
		}
		return nil
	})
}
