package polynomial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// randomInstance draws a random small polynomial instance: domain sizes,
// multi-dimensional statistic specs (pairwise disjoint is not required by
// the polynomial itself), and a random variable assignment.
func randomInstance(rng *rand.Rand) ([]int, []MultiStatSpec, *System) {
	m := 2 + rng.Intn(3) // 2..4 attributes
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = 2 + rng.Intn(4) // 2..5 values
	}
	numStats := rng.Intn(4) // 0..3 multi statistics
	specs := make([]MultiStatSpec, 0, numStats)
	for j := 0; j < numStats; j++ {
		k := 2
		if m > 2 && rng.Intn(3) == 0 {
			k = 3
		}
		attrs := rng.Perm(m)[:k]
		sortInts(attrs)
		ranges := make([]query.Range, k)
		for i, a := range attrs {
			lo := rng.Intn(sizes[a])
			hi := lo + rng.Intn(sizes[a]-lo)
			ranges[i] = query.NewRange(lo, hi)
		}
		specs = append(specs, MultiStatSpec{Attrs: attrs, Ranges: ranges})
	}
	comp, err := NewCompressed(sizes, specs)
	if err != nil {
		panic(err)
	}
	sys := NewSystem(comp)
	for _, ref := range sys.Variables() {
		sys.Set(ref, 0.1+2*rng.Float64())
	}
	return sizes, specs, sys
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// randomPredicate draws a random predicate over the domain sizes, nil one
// time in four.
func randomPredicate(sizes []int, rng *rand.Rand) *query.Predicate {
	if rng.Intn(4) == 0 {
		return nil
	}
	p := query.NewPredicate(len(sizes))
	for a, n := range sizes {
		switch rng.Intn(3) {
		case 0:
			// unconstrained
		case 1:
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			p.WhereRange(a, lo, hi)
		case 2:
			var vals []int
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				vals = []int{rng.Intn(n)}
			}
			p.WhereIn(a, vals...)
		}
	}
	return p
}

func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// TestCompressedMatchesNaiveEval checks the central claim of Theorem 4.1:
// the compressed polynomial evaluates (masked and unmasked) to exactly
// the brute-force sum-of-products value, on random instances.
func TestCompressedMatchesNaiveEval(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		sizes, specs, sys := randomInstance(rng)
		naive, err := NewNaive(sizes, specs)
		if err != nil {
			t.Fatalf("trial %d: NewNaive: %v", trial, err)
		}
		for q := 0; q < 4; q++ {
			pred := randomPredicate(sizes, rng)
			got := sys.Eval(pred)
			want := naive.Eval(sys, pred)
			if !approxEqual(got, want) {
				t.Fatalf("trial %d pred %v: compressed Eval = %g, naive = %g (sizes %v, %d stats)",
					trial, pred, got, want, sizes, len(specs))
			}
		}
	}
}

// TestCompressedMatchesNaiveDeriv checks the analytic partial derivatives
// of the compressed form against brute-force enumeration, for both α and
// δ variables. (The masked α derivative is DerivColumn's; its equivalence
// with the same oracle is TestDerivColumnMatchesPerValue.)
func TestCompressedMatchesNaiveDeriv(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		sizes, specs, sys := randomInstance(rng)
		naive, err := NewNaive(sizes, specs)
		if err != nil {
			t.Fatalf("trial %d: NewNaive: %v", trial, err)
		}
		for _, ref := range sys.Variables() {
			got := sys.Deriv(ref)
			want := naive.Deriv(sys, ref, nil)
			if !approxEqual(got, want) {
				t.Fatalf("trial %d var %v: compressed Deriv = %g, naive = %g", trial, ref, got, want)
			}
		}
	}
}

// TestEvalMultilinearIdentity checks x·∂P/∂x + P|_{x=0} = P, the
// multilinearity identity both the solver update and Eq. (8) rely on.
func TestEvalMultilinearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		_, _, sys := randomInstance(rng)
		p := sys.Eval(nil)
		for _, ref := range sys.Variables() {
			x := sys.Get(ref)
			pd := sys.Deriv(ref)
			sys.Set(ref, 0)
			rest := sys.Eval(nil)
			sys.Set(ref, x)
			if !approxEqual(x*pd+rest, p) {
				t.Fatalf("trial %d var %v: x·P' + P|0 = %g, want P = %g", trial, ref, x*pd+rest, p)
			}
		}
	}
}

// TestUnsatisfiableMaskEvaluatesToZero pins the masked-evaluation edge
// case: a predicate with an empty constraint yields 0.
func TestUnsatisfiableMaskEvaluatesToZero(t *testing.T) {
	comp, err := NewCompressed([]int{3, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(comp)
	pred := query.NewPredicate(2).Where(0, query.ValueIn(query.NewRange(2, 1)))
	if got := sys.Eval(pred); got != 0 {
		t.Fatalf("Eval(empty constraint) = %g, want 0", got)
	}
}
