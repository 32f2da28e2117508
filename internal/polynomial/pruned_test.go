package polynomial

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/query"
)

// fullWalkEval runs the pre-index reference implementation of masked
// evaluation — the oracle the pruned path is equivalence-tested against.
func fullWalkEval(s *System, pred *query.Predicate) float64 {
	s.refreshAll()
	sc := s.getScratch(pred)
	defer s.putScratch(sc)
	if pred == nil {
		return s.total
	}
	return s.evalFullWalk(sc.cons)
}

// fullWalkDeriv runs the pre-index reference masked derivative of a 1D
// variable.
func fullWalkDeriv(s *System, ref VarRef, pred *query.Predicate) float64 {
	s.refreshAll()
	sc := s.getScratch(pred)
	defer s.putScratch(sc)
	return s.derivOneD(ref.Attr, ref.Value, sc.cons)
}

// closeEnough compares the pruned and full-walk values. The mask-delta
// identity subtracts touched-term values from the scaled total, so when
// the masked value is many orders of magnitude below the unmasked P the
// comparison must allow for cancellation at the total's magnitude —
// that is inherent to any delta evaluation, not a bug.
func closeEnough(got, want, magnitude float64) bool {
	diff := math.Abs(got - want)
	scale := math.Max(math.Abs(got), math.Abs(want))
	scale = math.Max(scale, math.Abs(magnitude))
	return diff <= 1e-9*math.Max(scale, 1)
}

// shapedConstraint draws one per-attribute constraint covering the shapes
// the pruned path special-cases: points, in-domain ranges, ranges
// straddling or entirely outside the domain, empty ranges, canonical
// InSet lists, and unsorted InSet lists with duplicates and out-of-domain
// values.
func shapedConstraint(n int, rng *rand.Rand) query.Constraint {
	switch rng.Intn(7) {
	case 0:
		return query.ValueEq(rng.Intn(n))
	case 1:
		lo := rng.Intn(n)
		return query.ValueIn(query.NewRange(lo, lo+rng.Intn(n-lo)))
	case 2:
		// Straddles the domain edges; clipping must not change the answer.
		return query.ValueIn(query.NewRange(-1-rng.Intn(2), n-1+rng.Intn(3)))
	case 3:
		// Empty or entirely out-of-domain: must evaluate to exactly 0.
		if rng.Intn(2) == 0 {
			return query.ValueIn(query.NewRange(2, 1))
		}
		return query.ValueIn(query.NewRange(n, n+2))
	case 4:
		vals := rng.Perm(n)[:1+rng.Intn(n)]
		return query.ValueSet(vals)
	case 5:
		// Unsorted, duplicated, partially out-of-domain value list built
		// without ValueSet's canonicalization.
		vals := []int{n - 1, -3, 1 % n, n + 4, 1 % n, 0}
		return query.Constraint{Kind: query.InSet, Values: vals}
	default:
		return query.ValueIn(query.Point(rng.Intn(n)).Intersect(query.NewRange(0, n-1)))
	}
}

// shapedPredicate constrains exactly k attributes (nil when k is 0 half
// the time, exercising the no-op mask path both ways).
func shapedPredicate(sizes []int, k int, rng *rand.Rand) *query.Predicate {
	if k == 0 && rng.Intn(2) == 0 {
		return nil
	}
	if k > len(sizes) {
		k = len(sizes)
	}
	p := query.NewPredicate(len(sizes))
	for _, a := range rng.Perm(len(sizes))[:k] {
		p.Where(a, shapedConstraint(sizes[a], rng))
	}
	return p
}

// TestPrunedEvalMatchesFullWalk is the randomized pruned-vs-naive masked
// equivalence test: across instances and predicate shapes (0, 1, 2, and
// all constrained attributes; InRange and InSet mixes; empty and
// out-of-domain ranges) the attribute→term-index evaluation must agree
// with the full-walk reference.
func TestPrunedEvalMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		sizes, _, sys := randomInstance(rng)
		sys.Eval(nil)
		for _, k := range []int{0, 1, 2, len(sizes)} {
			pred := shapedPredicate(sizes, k, rng)
			got := sys.Eval(pred)
			want := fullWalkEval(sys, pred)
			if !closeEnough(got, want, sys.Total()) {
				t.Fatalf("trial %d (%d attrs) pred %v: pruned Eval = %g, full walk = %g (sizes %v)",
					trial, k, pred, got, want, sizes)
			}
			if pred != nil && pred.Unsatisfiable() && got != 0 {
				t.Fatalf("trial %d pred %v: unsatisfiable predicate evaluated to %g, want exactly 0", trial, pred, got)
			}
		}
	}
}

// TestPrunedEvalBenchShape pins the equivalence on the BENCH.md instance
// shape (118 variables, 48 2D statistics) for the benchmark predicates
// and a randomized predicate sweep — the exact shape the ≥5x acceptance
// criterion is measured on.
func TestPrunedEvalBenchShape(t *testing.T) {
	sys, pred := benchSystem(t)
	sys.Eval(nil)
	sizes := sys.Poly().DomainSizes()
	preds := []*query.Predicate{pred}
	for _, p := range selectivePreds(len(sizes)) {
		preds = append(preds, p)
	}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 40; i++ {
		preds = append(preds, shapedPredicate(sizes, 1+rng.Intn(len(sizes)), rng))
	}
	for _, p := range preds {
		got := sys.Eval(p)
		want := fullWalkEval(sys, p)
		if !closeEnough(got, want, sys.Total()) {
			t.Fatalf("pred %v: pruned Eval = %g, full walk = %g", p, got, want)
		}
	}
	for _, p := range preds {
		for _, attr := range []int{0, 5} {
			checkDerivColumn(t, "bench shape", sys, nil, attr, p)
		}
	}
}

// TestPrunedEvalZeroAlphaFactors exercises the zero-factor bookkeeping:
// variables forced to exactly 0 make cached factors and nz/zeros states
// that the term-local factor swap must reproduce.
func TestPrunedEvalZeroAlphaFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 60; trial++ {
		sizes, _, sys := randomInstance(rng)
		// Zero out a few variables (sometimes a whole attribute column,
		// driving full-domain sums to 0 — the pruned path must fall back).
		for _, ref := range sys.Variables() {
			if rng.Intn(4) == 0 {
				sys.Set(ref, 0)
			}
		}
		if rng.Intn(3) == 0 {
			a := rng.Intn(len(sizes))
			for v := 0; v < sizes[a]; v++ {
				sys.SetOneD(a, v, 0)
			}
		}
		sys.Eval(nil)
		for q := 0; q < 6; q++ {
			pred := shapedPredicate(sizes, 1+rng.Intn(len(sizes)), rng)
			got := sys.Eval(pred)
			want := fullWalkEval(sys, pred)
			if !closeEnough(got, want, sys.Total()) {
				t.Fatalf("trial %d pred %v: pruned Eval = %g, full walk = %g (with zeroed vars)",
					trial, pred, got, want)
			}
		}
	}
}

// TestMaskedEvalConcurrentReaders exercises the documented contract: after
// one Eval(nil) handoff, concurrent masked Eval calls are safe and agree
// with their serial answers (TestDerivColumnConcurrentReaders is the same
// for the column pass). Run under -race this also proves the pruned path
// and its pooled scratch stay read-only.
func TestMaskedEvalConcurrentReaders(t *testing.T) {
	sys, pred := benchSystem(t)
	sys.Eval(nil)
	preds := []*query.Predicate{pred}
	for _, p := range selectivePreds(sys.Poly().NumAttrs()) {
		preds = append(preds, p)
	}
	wantEval := make([]float64, len(preds))
	for i, p := range preds {
		wantEval[i] = sys.Eval(p)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				i := (g + it) % len(preds)
				if got := sys.Eval(preds[i]); got != wantEval[i] {
					errs <- "concurrent Eval diverged from serial answer"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestMaskedPrefixEquivalence checks the O(1) masked prefix-column factor
// sums against the direct maskedSum scan across random instances, constraint
// shapes, and (clipped, straddling, empty) ranges.
func TestMaskedPrefixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		sizes, _, sys := randomInstance(rng)
		sys.Eval(nil)
		pred := shapedPredicate(sizes, 1+rng.Intn(len(sizes)), rng)
		if pred == nil {
			continue
		}
		sc := sys.getScratch(pred)
		for a := range sizes {
			n := sizes[a]
			ranges := []query.Range{
				fullRange(n),
				query.NewRange(rng.Intn(n), rng.Intn(2*n)),
				query.NewRange(-2, rng.Intn(n)),
				query.NewRange(3, 1),
				query.Point(rng.Intn(n)),
			}
			for _, r := range ranges {
				got := sc.masked(a, r.Lo, r.Hi)
				want := sys.maskedSum(a, r, sc.cons[a])
				if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("trial %d attr %d range %v cons %v: masked = %g, maskedSum = %g",
						trial, a, r, sc.cons[a], got, want)
				}
			}
		}
		sys.putScratch(sc)
	}
}

// TestCanonValues pins the once-per-query InSet canonicalization: sorted
// inputs pass through untouched (no copy), unsorted inputs are sorted and
// deduplicated into the scratch, and both are clipped to the domain.
func TestCanonValues(t *testing.T) {
	sc := &evalScratch{}
	got := sc.canonValues([]int{-2, 0, 3, 7, 9}, 8)
	if len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("clip sorted: got %v, want [0 3 7]", got)
	}
	got = sc.canonValues([]int{5, 1, 5, -1, 9, 3, 1}, 8)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("canonicalize unsorted: got %v, want [1 3 5]", got)
	}
	if got := sc.canonValues(nil, 8); len(got) != 0 {
		t.Fatalf("nil values: got %v, want empty", got)
	}
}
