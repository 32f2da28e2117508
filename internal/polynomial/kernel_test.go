package polynomial

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
)

func fullRange(n int) query.Range { return query.Range{Lo: 0, Hi: n - 1} }

var flightsShaped = sync.OnceValue(func() *Compressed {
	sizes, specs := flightsShapedSpecs()
	comp, err := NewCompressed(sizes, specs)
	if err != nil {
		panic(err)
	}
	return comp
})

// flightsShapedSystem is the benchmark-shaped polynomial (two pair families
// sharing an attribute, 9,301 terms over four attribute sets) under a random
// assignment with mixed-sign (δ−1) factors, loaded in bulk.
func flightsShapedSystem(tb testing.TB, rng *rand.Rand) *System {
	tb.Helper()
	comp := flightsShaped()
	alpha := make([][]float64, comp.NumAttrs())
	for a, n := range comp.DomainSizes() {
		alpha[a] = make([]float64, n)
		for v := range alpha[a] {
			alpha[a][v] = 0.1 + 2*rng.Float64()
		}
	}
	delta := make([]float64, comp.NumMultiStats())
	for j := range delta {
		delta[j] = 0.1 + 2*rng.Float64()
	}
	sys, err := NewSystemFrom(comp, alpha, delta)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// zeroSomeVariables pins a quarter of the variables at the values that make
// exact-zero factors (α = 0, δ = 1), editing the assignment in place and
// rebuilding the caches from it in one pass.
func zeroSomeVariables(sys *System, rng *rand.Rand) {
	for _, col := range sys.alpha {
		for v := range col {
			if rng.Intn(4) == 0 {
				col[v] = 0
			}
		}
	}
	for j := range sys.delta {
		if rng.Intn(4) == 0 {
			sys.delta[j] = 1
		}
	}
	sys.load(sys.alpha, sys.delta)
}

// zeroColumn pins every α of one attribute at 0, so its full-domain sum is
// an exact zero and masks on it take the guard-condition fallbacks.
func zeroColumn(sys *System, attr int) {
	clear(sys.alpha[attr])
	sys.load(sys.alpha, sys.delta)
}

// checkKernel compares the masked Eval and one DerivColumn per attribute
// with the retained oracles: the full walk, the per-value full-walk
// derivative and, when nv is non-nil, the tuple enumeration. perColumn bounds
// how many values of each column are checked (0 = all); the values the
// predicate excludes on the column attribute must be exactly zero.
func checkKernel(t *testing.T, what string, sys *System, nv *Naive, pred *query.Predicate, perColumn int, rng *rand.Rand) {
	t.Helper()
	sizes := sys.Poly().DomainSizes()
	got, want := sys.Eval(pred), fullWalkEval(sys, pred)
	if !closeEnough(got, want, sys.Total()) {
		t.Fatalf("%s pred %v: Eval = %g, full walk = %g", what, pred, got, want)
	}
	canon := canonicalPredicate(pred)
	if nv != nil {
		if want := nv.Eval(sys, canon); !closeEnough(got, want, sys.Total()) {
			t.Fatalf("%s pred %v: Eval = %g, naive = %g", what, pred, got, want)
		}
	}
	if pred != nil && pred.Unsatisfiable() && got != 0 {
		t.Fatalf("%s pred %v: unsatisfiable predicate evaluated to %g, want exactly 0", what, pred, got)
	}
	for attr, n := range sizes {
		out := make([]float64, n)
		sys.DerivColumn(attr, pred, out)
		scale := 0.0
		for _, x := range out {
			scale = math.Max(scale, math.Abs(x))
		}
		values := rng.Perm(n)
		if perColumn > 0 && perColumn < n {
			values = values[:perColumn]
		}
		for _, v := range values {
			ref := VarRef{Kind: OneD, Attr: attr, Value: v}
			if want := fullWalkDeriv(sys, ref, pred); !closeEnough(out[v], want, scale) {
				t.Fatalf("%s pred %v: DerivColumn(%d)[%d] = %g, full walk = %g", what, pred, attr, v, out[v], want)
			}
			if nv != nil {
				if want := nv.Deriv(sys, ref, canon); !closeEnough(out[v], want, scale) {
					t.Fatalf("%s pred %v: DerivColumn(%d)[%d] = %g, naive = %g", what, pred, attr, v, out[v], want)
				}
			}
		}
		for v, x := range out {
			if canon != nil && !canon.Constraint(attr).Matches(v) && x != 0 {
				t.Fatalf("%s pred %v: DerivColumn(%d)[%d] = %g on an excluded value, want exactly 0", what, pred, attr, v, x)
			}
		}
	}
}

// TestKernelMatchesOracles is the randomized equivalence test of the
// candidate-list / partial-sum kernel: on the flights shape and on random
// instances, under masks of every shapedConstraint shape over 1–4
// attributes, with all-positive variables, with exact-zero factors, and with
// a whole α column zeroed (which sends masks on it to the fallbacks).
func TestKernelMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	variants := []struct {
		name    string
		prepare func(sys *System)
	}{
		{"plain", func(*System) {}},
		{"zeroed variables", func(sys *System) { zeroSomeVariables(sys, rng) }},
		{"zeroed column", func(sys *System) { zeroColumn(sys, rng.Intn(sys.Poly().NumAttrs())) }},
	}
	for _, variant := range variants {
		sys := flightsShapedSystem(t, rng)
		variant.prepare(sys)
		sys.Eval(nil)
		sizes := sys.Poly().DomainSizes()
		for k := 1; k <= 4; k++ {
			for q := 0; q < 2; q++ {
				checkKernel(t, "flights, "+variant.name, sys, nil, shapedPredicate(sizes, k, rng), 4, rng)
			}
		}
	}
	for trial := 0; trial < 90; trial++ {
		variant := variants[trial%len(variants)]
		sizes, specs, sys := randomInstance(rng)
		variant.prepare(sys)
		sys.Eval(nil)
		nv, err := NewNaive(sizes, specs)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			checkKernel(t, fmt.Sprintf("trial %d, %s", trial, variant.name), sys, nv, shapedPredicate(sizes, k, rng), 0, rng)
		}
	}
}

// TestPartialSumsInvalidation reads, writes and reads again: every way of
// changing the variables or the term caches must drop the partial sums, so
// that the second masked Eval and DerivColumn equal the oracle's answers for
// the new state — a stale partial sum leaves them at the old ones.
func TestPartialSumsInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	donor := flightsShapedSystem(t, rng)
	writes := []struct {
		name  string
		moves bool // whether the write changes the polynomial's value
		apply func(sys *System)
	}{
		{"SetOneD", true, func(sys *System) { sys.SetOneD(3, 5, 3*sys.OneD(3, 5)+1) }},
		{"SetMulti", true, func(sys *System) { sys.Set(VarRef{Kind: Multi, Stat: 7}, 2*sys.MultiVar(7)+1) }},
		{"CopyVarsFrom", true, func(sys *System) {
			if err := sys.CopyVarsFrom(donor); err != nil {
				t.Fatal(err)
			}
		}},
		{"Recompute", false, func(sys *System) { sys.Recompute() }},
	}
	// The mask reaches attribute 4 only: the terms of the attribute sets
	// {1,4} and {1,2,4} are candidates, the sets ∅ and {1,2} — which hold
	// statistic 7 — are read from the sums, for Eval and for column 2 alike.
	pred := query.NewPredicate(5).WhereRange(4, 10, 12)
	const col = 2
	for _, w := range writes {
		sys := flightsShapedSystem(t, rng)
		out := make([]float64, sys.Poly().DomainSizes()[col])
		before := sys.Eval(pred)
		sys.DerivColumn(col, pred, out)
		if sys.sums.Load() == nil {
			t.Fatalf("%s: the masked reads built no partial sums", w.name)
		}
		w.apply(sys)
		if sys.sums.Load() != nil {
			t.Fatalf("%s kept the partial sums", w.name)
		}
		after := fullWalkEval(sys, pred)
		if w.moves && math.Abs(after-before) < 1e-3*math.Abs(before) {
			t.Fatalf("%s moved the masked value only from %g to %g; the test needs a visible change", w.name, before, after)
		}
		checkKernel(t, "after "+w.name, sys, nil, pred, 4, rng)
	}
}

// TestFirstMaskedReadsConcurrent covers the publication of the partial sums:
// right after a write (and the Eval(nil) handoff that flushes the prefix
// caches) eight goroutines issue their first masked Eval and DerivColumn at
// once. Each builds or finds the sums; all must agree bit for bit with the
// serial answers of a twin system that went through the same writes. Run
// under -race this proves the lazily built sums are published safely.
func TestFirstMaskedReadsConcurrent(t *testing.T) {
	build := func() *System { return flightsShapedSystem(t, rand.New(rand.NewSource(227))) }
	sys, twin := build(), build()
	sizes := sys.Poly().DomainSizes()
	rng := rand.New(rand.NewSource(229))
	preds := make([]*query.Predicate, 6)
	for i := range preds {
		preds[i] = query.NewPredicate(len(sizes))
		for _, a := range rng.Perm(len(sizes))[:1+i%3] {
			lo := rng.Intn(sizes[a])
			preds[i].WhereRange(a, lo, lo+rng.Intn(4))
		}
	}
	for round := 0; round < 4; round++ {
		ref := VarRef{Kind: OneD, Attr: round % len(sizes), Value: round}
		x := 0.2 + float64(round)
		sys.Set(ref, x)
		twin.Set(ref, x)
		sys.Eval(nil)
		twin.Eval(nil)
		wantEval := make([]float64, len(preds))
		wantCol := make([][]float64, len(preds))
		for i, p := range preds {
			wantEval[i] = twin.Eval(p)
			wantCol[i] = make([]float64, sizes[i%len(sizes)])
			twin.DerivColumn(i%len(sizes), p, wantCol[i])
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				col := make([]float64, sizes[0])
				for it := 0; it < len(preds); it++ {
					i := (g + it) % len(preds)
					if got := sys.Eval(preds[i]); got != wantEval[i] {
						t.Errorf("round %d: concurrent first Eval(%v) = %g, serial %g", round, preds[i], got, wantEval[i])
						return
					}
					sys.DerivColumn(i%len(sizes), preds[i], col)
					for v, want := range wantCol[i] {
						if col[v] != want {
							t.Errorf("round %d: concurrent first DerivColumn(%d, %v)[%d] = %g, serial %g", round, i%len(sizes), preds[i], v, col[v], want)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestCandidateInvariant checks the candidate lists against a brute-force
// scan of the terms: for random masks, with and without a differentiated
// attribute left out of the mask's set S', the candidates hold no duplicate
// and are exactly the terms with I ∩ S' ≠ ∅ whose range overlaps the mask's
// hull on the lowest attribute of I ∩ S' — so they hold every term whose
// ranges overlap every hull of I ∩ S', and every term the mask reaches whose
// masked value is non-zero. Per attribute, the runs of the groups that
// overlap the hull and whose set constrains the attribute hold exactly the
// constraining terms whose range overlaps the hull.
func TestCandidateInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	check := func(what string, sys *System, pred *query.Predicate) {
		t.Helper()
		if pred == nil {
			return
		}
		p := sys.Poly()
		m := p.NumAttrs()
		sc := sys.getScratch(pred)
		defer sys.putScratch(sc)
		if sc.void {
			return
		}
		overlaps := func(i, a int) bool {
			r := p.rangeAt(i*m + a)
			return r.Lo <= sc.hi[a] && r.Hi >= sc.lo[a]
		}
		for _, a := range sc.attrs {
			bit := uint64(1) << uint(a)
			overlapping, listed := 0, 0
			for i := 0; i < p.NumTerms(); i++ {
				if p.attrSets[p.termSet[i]]&bit != 0 && overlaps(i, a) {
					overlapping++
				}
			}
			for g, gr := range p.groups[a] {
				if p.attrSets[gr.set]&bit != 0 && int(gr.lo) <= sc.hi[a] && int(gr.hi) >= sc.lo[a] {
					listed += len(p.run(a, g))
				}
			}
			if listed != overlapping {
				t.Fatalf("%s pred %v attr %d: the overlapping groups' runs hold %d terms, %d constraining terms overlap the hull", what, pred, a, listed, overlapping)
			}
		}
		for _, skip := range []int{-1, sc.attrs[rng.Intn(len(sc.attrs))]} {
			var sMask uint64
			for _, a := range sc.attrs {
				if a != skip {
					sMask |= 1 << uint(a)
				}
			}
			want := map[int32]bool{}
			for i := 0; i < p.NumTerms(); i++ {
				reached := p.attrSets[p.termSet[i]] & sMask
				if reached == 0 {
					continue
				}
				if overlaps(i, bits.TrailingZeros64(reached)) {
					want[int32(i)] = true
				}
				every := true
				for x := reached; x != 0; x &= x - 1 {
					every = every && overlaps(i, bits.TrailingZeros64(x))
				}
				if every && !want[int32(i)] {
					t.Fatalf("%s pred %v skip %d: term %d overlaps every hull but not its lowest", what, pred, skip, i)
				}
				if skip < 0 && sys.evalTerm(i, sc.cons) != 0 && !want[int32(i)] {
					t.Fatalf("%s pred %v: term %d survives the mask but overlaps no hull", what, pred, i)
				}
			}
			listed := map[int32]bool{}
			for _, ti := range sys.groupRatios(sc, skip) {
				if listed[ti] {
					t.Fatalf("%s pred %v skip %d: term %d is listed twice", what, pred, skip, ti)
				}
				listed[ti] = true
				if !want[ti] {
					t.Fatalf("%s pred %v skip %d: term %d is listed but does not overlap the hull of its lowest masked attribute", what, pred, skip, ti)
				}
			}
			if len(listed) != len(want) {
				t.Fatalf("%s pred %v skip %d: %d candidates, the brute force finds %d", what, pred, skip, len(listed), len(want))
			}
		}
	}
	flights := flightsShapedSystem(t, rng)
	flights.Eval(nil)
	for q := 0; q < 40; q++ {
		check("flights", flights, shapedPredicate(flights.Poly().DomainSizes(), 1+q%4, rng))
	}
	for trial := 0; trial < 200; trial++ {
		sizes, _, sys := randomInstance(rng)
		sys.Eval(nil)
		check(fmt.Sprintf("trial %d", trial), sys, shapedPredicate(sizes, 1+trial%4, rng))
	}
}

// TestReadSystemIsCollected holds the scratch pool to not keeping models
// alive: a System that has answered masked reads and column passes becomes
// unreachable at the first collection after its last use. A pool owned by
// the System kept it reachable for a second collection, and with it every
// model a loop had built since the collection before.
func TestReadSystemIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		_, _, sys := randomInstance(rand.New(rand.NewSource(5)))
		sys.Eval(nil)
		pred := query.NewPredicate(sys.Poly().NumAttrs()).WhereRange(0, 0, 1)
		sys.Eval(pred)
		sys.DerivColumn(1, pred, make([]float64, sys.Poly().DomainSizes()[1]))
		runtime.SetFinalizer(sys, func(*System) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a System that answered masked reads is still reachable after a collection")
	}
}
