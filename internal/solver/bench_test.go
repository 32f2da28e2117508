package solver

import (
	"math/rand"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/query"
)

// benchInstance builds a realistically shaped solve: 6 attributes with
// domain sizes up to 64 and 16 pairwise 2D statistics over three attribute
// pairs (the shape a B_a=3, B_s=16 summary produces), with synthetic but
// consistent targets drawn from a random product distribution.
func benchInstance(b *testing.B) (*polynomial.System, []Constraint, Options) {
	b.Helper()
	sizes := []int{64, 32, 16, 8, 8, 4}
	rng := rand.New(rand.NewSource(97))
	var specs []polynomial.MultiStatSpec
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {0, 4}} {
		for k := 0; k < 16; k++ {
			a1, a2 := pair[0], pair[1]
			v1 := (k * 3) % sizes[a1]
			v2 := k % sizes[a2]
			specs = append(specs, polynomial.MultiStatSpec{
				Attrs:  []int{a1, a2},
				Ranges: []query.Range{query.Point(v1), query.Point(v2)},
			})
		}
	}
	comp, err := polynomial.NewCompressed(sizes, specs)
	if err != nil {
		b.Fatal(err)
	}

	// Draw per-attribute marginals from a Dirichlet-ish distribution and
	// derive consistent 1D targets; multi targets follow independence with
	// a mild boost so the deltas have work to do.
	const n = 100000.0
	marg := make([][]float64, len(sizes))
	var constraints []Constraint
	for a, sz := range sizes {
		weights := make([]float64, sz)
		sum := 0.0
		for v := range weights {
			weights[v] = 0.05 + rng.Float64()
			sum += weights[v]
		}
		marg[a] = make([]float64, sz)
		for v := range weights {
			marg[a][v] = weights[v] / sum
			constraints = append(constraints, OneDConstraint(a, v, n*marg[a][v]))
		}
	}
	for j, spec := range specs {
		p := 1.0
		for k, a := range spec.Attrs {
			r := spec.Ranges[k]
			pp := 0.0
			for v := r.Lo; v <= r.Hi; v++ {
				pp += marg[a][v]
			}
			p *= pp
		}
		target := n * p * (1 + 0.5*rng.Float64())
		constraints = append(constraints, MultiConstraint(j, target))
	}
	sys := polynomial.NewSystem(comp)
	return sys, constraints, Options{N: n, MaxSweeps: 20, Tolerance: 1e-9}
}

// BenchmarkSolve measures a full (sweep-budget-bounded) MaxEnt solve on the
// summary-shaped instance — the end-to-end cost a summary build pays.
func BenchmarkSolve(b *testing.B) {
	sys, constraints, opts := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := sys.Clone()
		b.StartTimer()
		if _, err := Solve(fresh, constraints, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// warmBenchSetup solves a tuple-count-derived base instance to convergence
// and returns everything needed to re-solve the appended variant (a
// 10-row delta on 100k rows) either cold or warm-started from the base
// solution — the refresh hot path.
func warmBenchSetup(b *testing.B) (mk func() *polynomial.System, grown []Constraint, nGrown float64, prev *polynomial.System) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	mk, base, grown, nBase, nGrown := deltaInstance(rng, 100000, 10)
	prev = mk()
	rep, err := Solve(prev, base, Options{N: nBase, MaxSweeps: 500, Tolerance: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Converged {
		b.Fatalf("base solve did not converge: %v", rep)
	}
	return mk, grown, nGrown, prev
}

// BenchmarkSolveColdSmallDelta re-solves the appended instance from the
// all-ones cold start — what a refresh would cost without warm-starting.
func BenchmarkSolveColdSmallDelta(b *testing.B) {
	mk, grown, nGrown, _ := warmBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(mk(), grown, Options{N: nGrown, MaxSweeps: 500, Tolerance: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatalf("cold solve did not converge: %v", rep)
		}
	}
}

// BenchmarkSolveWarmSmallDelta re-solves the appended instance warm-started
// from the previous solution — the summary Refresh hot path the CI bench
// gate guards.
func BenchmarkSolveWarmSmallDelta(b *testing.B) {
	mk, grown, nGrown, prev := warmBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(mk(), grown, Options{N: nGrown, MaxSweeps: 500, Tolerance: 1e-6, Init: prev})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatalf("warm solve did not converge: %v", rep)
		}
	}
}
