package polynomial

import (
	"math/rand"
	"testing"

	"repro/internal/query"
)

// incrementalInstance builds a moderately sized system whose terms combine
// across statistics, so the factor caches see multi-statistic terms.
func incrementalInstance(t *testing.T) *System {
	t.Helper()
	sizes := []int{8, 6, 5, 4}
	specs := []MultiStatSpec{
		{Attrs: []int{0, 1}, Ranges: []query.Range{query.NewRange(0, 3), query.NewRange(0, 2)}},
		{Attrs: []int{0, 1}, Ranges: []query.Range{query.NewRange(4, 7), query.NewRange(3, 5)}},
		{Attrs: []int{1, 2}, Ranges: []query.Range{query.NewRange(0, 4), query.NewRange(1, 3)}},
		{Attrs: []int{2, 3}, Ranges: []query.Range{query.NewRange(0, 2), query.NewRange(0, 1)}},
		{Attrs: []int{0, 3}, Ranges: []query.Range{query.NewRange(2, 5), query.NewRange(2, 3)}},
	}
	comp, err := NewCompressed(sizes, specs)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(comp)
}

// randomValue draws an update value exercising the cache's edge cases:
// exact zeros (pinned statistics), exact ones (δ − 1 = 0 factors), tiny
// clamped values, and ordinary positive values.
func randomValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 1e-12
	default:
		return 0.05 + 3*rng.Float64()
	}
}

// TestSystemIncrementalMatchesRebuild is the tentpole equivalence test:
// after randomized SetVar sequences, the incrementally maintained Eval(nil)
// and every cached derivative must match a from-scratch rebuild of the same
// variable assignment (Clone rebuilds its caches fully).
func TestSystemIncrementalMatchesRebuild(t *testing.T) {
	sys := incrementalInstance(t)
	refs := sys.Variables()
	rng := rand.New(rand.NewSource(71))
	for step := 1; step <= 3000; step++ {
		ref := refs[rng.Intn(len(refs))]
		sys.Set(ref, randomValue(rng))
		if step%250 != 0 {
			continue
		}
		fresh := sys.Clone()
		if got, want := sys.Eval(nil), fresh.Eval(nil); !approxEqual(got, want) {
			t.Fatalf("step %d: incremental P = %g, rebuilt P = %g", step, got, want)
		}
		for _, r := range refs {
			if got, want := sys.Deriv(r), fresh.Deriv(r); !approxEqual(got, want) {
				t.Fatalf("step %d var %v: incremental ∂P = %g, rebuilt ∂P = %g", step, r, got, want)
			}
		}
	}
}

// TestSystemIncrementalMatchesMaskedScan checks that the cached full value
// agrees with the masked-evaluation scan under an empty (all-Any)
// predicate, tying the incremental path to the independently computed
// masked path.
func TestSystemIncrementalMatchesMaskedScan(t *testing.T) {
	sys := incrementalInstance(t)
	refs := sys.Variables()
	rng := rand.New(rand.NewSource(113))
	empty := query.NewPredicate(sys.Poly().NumAttrs())
	for step := 1; step <= 500; step++ {
		sys.Set(refs[rng.Intn(len(refs))], randomValue(rng))
		if got, want := sys.Eval(nil), sys.Eval(empty); !approxEqual(got, want) {
			t.Fatalf("step %d: cached P = %g, masked scan P = %g", step, got, want)
		}
	}
}

// TestSystemRecomputeResynchronizes pins Recompute: it must leave the
// cached value equal to a from-scratch evaluation (bit-equal to a clone's).
func TestSystemRecomputeResynchronizes(t *testing.T) {
	sys := incrementalInstance(t)
	refs := sys.Variables()
	rng := rand.New(rand.NewSource(29))
	for step := 0; step < 1000; step++ {
		sys.Set(refs[rng.Intn(len(refs))], randomValue(rng))
	}
	sys.Recompute()
	if got, want := sys.Eval(nil), sys.Clone().Eval(nil); got != want {
		t.Fatalf("post-Recompute P = %g, rebuilt P = %g (must be bit-equal)", got, want)
	}
}

// TestSystemDriftRebuildTriggers drives more updates than the rebuild
// budget to cover the automatic resynchronization path.
func TestSystemDriftRebuildTriggers(t *testing.T) {
	sys := incrementalInstance(t)
	refs := sys.Variables()
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < rebuildEvery+100; step++ {
		sys.Set(refs[rng.Intn(len(refs))], 0.05+3*rng.Float64())
	}
	if got, want := sys.Eval(nil), sys.Clone().Eval(nil); !approxEqual(got, want) {
		t.Fatalf("after %d updates: incremental P = %g, rebuilt P = %g", rebuildEvery+100, got, want)
	}
}
