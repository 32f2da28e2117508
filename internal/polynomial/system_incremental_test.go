package polynomial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestSweepsWithoutRecomputeStayNearRebuild pins the drift contract the
// solver relies on between its convergence checks: 30 sweeps of the
// benchmark-shaped model — every attribute's column written with
// SetOneDColumn, then every δ with SetMulti, and never a Recompute — keep
// Total, a masked Eval and every unmasked and masked DerivColumn within
// 1e-12 relative of a freshly rebuilt clone. The sweeps cross rebuildEvery
// more than once, so the automatic rebuild runs between them too.
func TestSweepsWithoutRecomputeStayNearRebuild(t *testing.T) {
	const sweeps = 30
	rng := rand.New(rand.NewSource(31))
	sys := flightsShapedSystem(t, rng)
	comp := sys.Poly()
	sizes := comp.DomainSizes()
	if updates := sweeps * (len(sizes) + comp.NumMultiStats()); updates < 2*rebuildEvery {
		t.Fatalf("%d updates cross rebuildEvery = %d fewer than twice", updates, rebuildEvery)
	}
	near := func(what string, sweep int, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > 1e-12*math.Abs(want) {
			t.Fatalf("sweep %d: %s = %.17g, rebuilt %.17g (relative %.3g)", sweep, what, got, want, d/math.Abs(want))
		}
	}
	pred := query.NewPredicate(len(sizes)).WhereRange(1, 10, 40).WhereIn(4, 3, 17, 60)
	got, want := make([]float64, slices.Max(sizes)), make([]float64, slices.Max(sizes))
	for sweep := 1; sweep <= sweeps; sweep++ {
		for a, n := range sizes {
			vals := make([]float64, n)
			for v := range vals {
				vals[v] = sys.OneD(a, v) * (0.7 + 0.6*rng.Float64())
			}
			sys.SetOneDColumn(a, vals)
		}
		for j := 0; j < comp.NumMultiStats(); j++ {
			sys.SetMulti(j, sys.MultiVar(j)*(0.7+0.6*rng.Float64()))
		}
		fresh := sys.Clone()
		near("Total", sweep, sys.Total(), fresh.Total())
		near("masked Eval", sweep, sys.Eval(pred), fresh.Eval(pred))
		for a, n := range sizes {
			for _, p := range []*query.Predicate{nil, pred} {
				sys.DerivColumn(a, p, got[:n])
				fresh.DerivColumn(a, p, want[:n])
				for v := 0; v < n; v++ {
					near(fmt.Sprintf("DerivColumn(%d, %v)[%d]", a, p, v), sweep, got[v], want[v])
				}
			}
		}
	}
}

// TestSetOneDColumnMatchesRebuild interleaves whole-column writes (with
// exact zeros, a whole zero column included) with single-variable writes and
// masked reads, and checks after every column write that the caches agree
// with a from-scratch rebuild: P, every cached derivative, a masked Eval and
// an unmasked and a masked DerivColumn — the last three read partial sums
// rebuilt into the buffers an earlier write left behind — and after every
// write that the group factors are bit-equal to the per-term rules'.
func TestSetOneDColumnMatchesRebuild(t *testing.T) {
	sys := incrementalInstance(t)
	sys.Recompute()
	o := newTermFactors(sys)
	sizes := sys.Poly().DomainSizes()
	refs := sys.Variables()
	rng := rand.New(rand.NewSource(25))
	pred := query.NewPredicate(len(sizes)).WhereRange(1, 1, 4).WhereIn(3, 0, 2)
	got, want := make([]float64, 8), make([]float64, 8)
	for step := 1; step <= 400; step++ {
		attr := rng.Intn(len(sizes))
		vals := make([]float64, sizes[attr])
		for v := range vals {
			if step%50 != 0 { // every 50th write zeroes the whole column
				vals[v] = randomValue(rng)
			}
		}
		o.setOneDColumn(attr, vals)
		o.check(t, fmt.Sprintf("step %d column write", step))
		for v, x := range vals {
			if sys.OneD(attr, v) != x {
				t.Fatalf("step %d: α[%d,%d] = %g after the column write, want %g", step, attr, v, sys.OneD(attr, v), x)
			}
		}
		fresh := sys.Clone()
		if got, want := sys.Eval(nil), fresh.Eval(nil); !approxEqual(got, want) {
			t.Fatalf("step %d: column-written P = %g, rebuilt P = %g", step, got, want)
		}
		for _, r := range refs {
			if got, want := sys.Deriv(r), fresh.Deriv(r); !approxEqual(got, want) {
				t.Fatalf("step %d var %v: column-written ∂P = %g, rebuilt ∂P = %g", step, r, got, want)
			}
		}
		if got, want := sys.Eval(pred), fresh.Eval(pred); !approxEqual(got, want) {
			t.Fatalf("step %d: masked P = %g, rebuilt %g", step, got, want)
		}
		for _, p := range []*query.Predicate{nil, pred} {
			a := rng.Intn(len(sizes))
			sys.DerivColumn(a, p, got)
			fresh.DerivColumn(a, p, want)
			for v := 0; v < sizes[a]; v++ {
				if !approxEqual(got[v], want[v]) {
					t.Fatalf("step %d: DerivColumn(%d, %v)[%d] = %g, rebuilt %g", step, a, p, v, got[v], want[v])
				}
			}
		}
		if r, x := refs[rng.Intn(len(refs))], randomValue(rng); r.Kind == OneD {
			o.setOneD(r.Attr, r.Value, x)
		} else {
			sys.Set(r, x)
			o.wrote()
		}
		o.check(t, fmt.Sprintf("step %d single write", step))
	}
}
