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
// SetOneDColumn, each write building the next attribute's column as the
// solver's do, then every δ with SetMulti given its Deriv, and never a
// Recompute — keep Total, a masked Eval and every unmasked and masked
// DerivColumn within 1e-12 relative of a freshly rebuilt clone. The sweeps cross rebuildEvery
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
			next := a + 1
			if next == len(sizes) {
				next = -1
			}
			sys.SetOneDColumn(a, vals, next)
		}
		for j := 0; j < comp.NumMultiStats(); j++ {
			ref := VarRef{Kind: Multi, Stat: j}
			sys.SetMulti(j, sys.MultiVar(j)*(0.7+0.6*rng.Float64()), sys.Deriv(ref))
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

// columnWrite names what a SetOneDColumn(attr, vals, ·) will do: whether
// some group of attr needs swapFactor (a zero factor, an unrepresentable
// ratio) and whether some group keeps its factor exactly (a ratio of 1).
func columnWrite(sys *System, attr int, vals []float64) (swap, same bool) {
	pre := make([]float64, len(vals)+1)
	for v, x := range vals {
		pre[v+1] = pre[v] + x
	}
	for g, gr := range sys.poly.groups[attr] {
		nf, old := pre[gr.hi+1]-pre[gr.lo], sys.gf[attr][g]
		r := nf / old
		same = same || nf == old
		swap = swap || nf != old && (old == 0 || nf == 0 || r == 0 || r == 1 || !isFinite(r))
	}
	return swap, same
}

// sameBits fails the test unless the two slices are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFusedColumnWriteMatchesWriteThenRead holds the solver's fused block
// step to its definition: after SetOneDColumn(a, vals, b) the system's caches,
// and the column of b it published, equal bit for bit those of
// SetOneDColumn(a, vals, -1) followed by a read of b's column — on the
// flights shape, sharedRangeInstance and random instances, with a quarter of
// the variables zeroed on every other trial. The draws reach every path: a
// group whose factor goes to or from zero (the swap), a group whose factor
// is unchanged (a ratio of 1), a write on which the drift rebuild runs and
// drops the column, b == a (not fused), and a b, or an a, that no term
// constrains.
func TestFusedColumnWriteMatchesWriteThenRead(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	shared := rand.New(rand.NewSource(264))
	seen := map[string]int{}
	for trial := 0; trial < 240; trial++ {
		var sys *System
		switch trial % 6 {
		case 0:
			sys = flightsShapedSystem(t, rng)
		case 1:
			_, _, sys = sharedRangeInstance(t, shared)
		default:
			_, _, sys = randomInstance(rng)
		}
		if trial%2 == 1 {
			zeroSomeVariables(sys, rng)
		}
		sys.Recompute()
		sizes := sys.poly.sizes
		a, b := rng.Intn(len(sizes)), rng.Intn(len(sizes))
		vals := slices.Clone(sys.alpha[a])
		for v := range vals {
			switch rng.Intn(4) {
			case 0: // kept: a group over kept values keeps its factor
			case 1:
				vals[v] = 0
			default:
				vals[v] = randomValue(rng)
			}
		}
		if trial%7 == 3 {
			sys.updates = rebuildEvery - 1
		}
		ref := sys.Clone()
		ref.updates = sys.updates
		swap, same := columnWrite(sys, a, vals)
		sys.SetOneDColumn(a, vals, b)
		ref.SetOneDColumn(a, vals, -1)
		rebuilt := sys.updates == 0
		published := sys.sums.Load() != nil && sys.sums.Load().cols[b].Load() != nil
		if want := b != a && !rebuilt; published != want {
			t.Fatalf("trial %d: SetOneDColumn(%d, ·, %d) left b's column published %t, want %t", trial, a, b, published, want)
		}
		what := fmt.Sprintf("trial %d (%d→%d)", trial, a, b)
		if math.Float64bits(sys.total) != math.Float64bits(ref.total) || !slices.Equal(sys.zeros, ref.zeros) {
			t.Fatalf("%s: total %v, zero counts %v; write then read %v, %v", what, sys.total, sys.zeros, ref.total, ref.zeros)
		}
		sameBits(t, what+" nz", sys.nz, ref.nz)
		sameBits(t, what+" gf", sys.gf[a], ref.gf[a])
		got, want := sys.setColumns(b), ref.setColumns(b)
		sameBits(t, what+" group sums", got.sum, want.sum)
		sameBits(t, what+" loose", got.loose, want.loose)
		for k := range got.col {
			sameBits(t, fmt.Sprintf("%s set %d column", what, k), got.col[k], want.col[k])
		}
		switch {
		case rebuilt:
			seen["rebuild"]++
		case b == a:
			seen["b == a"]++
		case swap:
			seen["swap"]++
		default:
			seen["ratio"]++
		}
		if same && b != a {
			seen["ratio of 1"]++
		}
		if len(sys.poly.starts[b]) == 0 && b != a {
			seen["b unconstrained"]++
		}
		if len(sys.poly.starts[a]) == 0 && b != a {
			seen["a unconstrained"]++
		}
	}
	for _, path := range []string{"rebuild", "b == a", "swap", "ratio", "ratio of 1", "b unconstrained", "a unconstrained"} {
		if seen[path] == 0 {
			t.Errorf("no trial took the %q path (%v)", path, seen)
		}
	}
}

// TestSetMultiGivenDerivMatchesSet checks that SetMulti given the Deriv the
// solver reads moves the caches exactly as Set, which reads the derivative
// itself, and that on the ratio path the total moves by the change times the
// sum of the statistic's terms over its old factor — the float SetMulti
// computed before it was handed the derivative — on both the ratio path and
// the swap path (a factor to or from zero).
func TestSetMultiGivenDerivMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(265))
	paths := map[bool]int{}
	for trial := 0; trial < 200; trial++ {
		_, _, sys := randomInstance(rng)
		if sys.poly.NumMultiStats() == 0 {
			continue
		}
		if trial%2 == 1 {
			zeroSomeVariables(sys, rng)
		}
		sys.Recompute()
		j := rng.Intn(sys.poly.NumMultiStats())
		x := randomValue(rng)
		ref := sys.Clone()
		old, of, nf := sys.delta[j], sys.delta[j]-1, x-1
		r := nf / of
		ratio := x != old && of != 0 && nf != 0 && r != 0 && isFinite(r)
		sum := 0.0
		for _, ti := range sys.poly.statTerms[j] {
			if sys.zeros[ti] == 0 {
				sum += sys.nz[ti]
			}
		}
		before := sys.total
		sys.SetMulti(j, x, sys.Deriv(VarRef{Kind: Multi, Stat: j}))
		ref.Set(VarRef{Kind: Multi, Stat: j}, x)
		what := fmt.Sprintf("trial %d δ[%d] %v → %v", trial, j, old, x)
		if math.Float64bits(sys.total) != math.Float64bits(ref.total) || !slices.Equal(sys.zeros, ref.zeros) {
			t.Fatalf("%s: total %v, Set %v", what, sys.total, ref.total)
		}
		sameBits(t, what+" nz", sys.nz, ref.nz)
		if ratio {
			if want := before + (x-old)*(sum/of); math.Float64bits(sys.total) != math.Float64bits(want) {
				t.Fatalf("%s: total %v, the ratio path's sum gives %v", what, sys.total, want)
			}
		}
		if x != old {
			paths[ratio]++
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("ratio path %d times, swap path %d times; want both", paths[true], paths[false])
	}
}
