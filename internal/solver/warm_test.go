package solver

import (
	"math/rand"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/query"
)

// deltaInstance builds a solver instance whose constraint targets come
// from counting actual random tuples (so the targets are exactly
// feasible), plus an appended-delta variant of the same instance: base
// counts + the counts of extra tuples drawn from the same distribution.
// The (attribute 0, attribute 1) pair is strongly correlated, which is
// what makes the cold solve work for its convergence — the regime where
// warm-starting pays.
func deltaInstance(rng *rand.Rand, baseTuples, deltaTuples int) (mk func() *polynomial.System, base, grown []Constraint, nBase, nGrown float64) {
	sizes := []int{32, 16, 8}
	specs := []polynomial.MultiStatSpec{}
	for v1 := 0; v1 < 16; v1++ {
		specs = append(specs, polynomial.MultiStatSpec{
			Attrs:  []int{0, 1},
			Ranges: []query.Range{query.Point(v1 * 2), query.Point(v1)},
		})
	}
	comp, err := polynomial.NewCompressed(sizes, specs)
	if err != nil {
		panic(err)
	}

	oneD := make([][]float64, len(sizes))
	for a, sz := range sizes {
		oneD[a] = make([]float64, sz)
	}
	multi := make([]float64, len(specs))
	draw := func(tuples int) {
		for i := 0; i < tuples; i++ {
			t0 := rng.Intn(sizes[0])
			t1 := rng.Intn(sizes[1])
			// Strong correlation: attribute 1 tracks attribute 0 four times
			// out of five.
			if rng.Float64() < 0.8 {
				t1 = t0 / 2
			}
			t2 := rng.Intn(sizes[2])
			oneD[0][t0]++
			oneD[1][t1]++
			oneD[2][t2]++
			for j, spec := range specs {
				if spec.Ranges[0].Contains(t0) && spec.Ranges[1].Contains(t1) {
					multi[j]++
				}
			}
		}
	}
	snapshot := func() []Constraint {
		var cs []Constraint
		for a := range oneD {
			for v, c := range oneD[a] {
				cs = append(cs, OneDConstraint(a, v, c))
			}
		}
		for j, c := range multi {
			cs = append(cs, MultiConstraint(j, c))
		}
		return cs
	}

	draw(baseTuples)
	base = snapshot()
	draw(deltaTuples)
	grown = snapshot()
	mk = func() *polynomial.System { return polynomial.NewSystem(comp) }
	return mk, base, grown, float64(baseTuples), float64(baseTuples + deltaTuples)
}

// TestSolveWarmStartConvergesFaster solves an instance cold, then solves
// the slightly-grown instance (1% appended tuples) once cold and once
// warm-started from the previous solution. The warm solve must converge,
// reach the same optimum, and need strictly fewer sweeps.
func TestSolveWarmStartConvergesFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk, base, grown, nBase, nGrown := deltaInstance(rng, 20000, 200)
	opts := Options{MaxSweeps: 500, Tolerance: 1e-7}

	prev := mk()
	optsBase := opts
	optsBase.N = nBase
	repPrev, err := Solve(prev, base, optsBase)
	if err != nil {
		t.Fatal(err)
	}
	if !repPrev.Converged {
		t.Fatalf("base solve did not converge: %v", repPrev)
	}

	optsGrown := opts
	optsGrown.N = nGrown
	cold := mk()
	repCold, err := Solve(cold, grown, optsGrown)
	if err != nil {
		t.Fatal(err)
	}
	if !repCold.Converged {
		t.Fatalf("cold solve did not converge: %v", repCold)
	}

	optsWarm := optsGrown
	optsWarm.Init = prev
	warm := mk()
	repWarm, err := Solve(warm, grown, optsWarm)
	if err != nil {
		t.Fatal(err)
	}
	if !repWarm.Converged {
		t.Fatalf("warm solve did not converge: %v", repWarm)
	}
	if repWarm.Sweeps >= repCold.Sweeps {
		t.Fatalf("warm start took %d sweeps, cold %d — warm must be strictly cheaper on a 1%% delta",
			repWarm.Sweeps, repCold.Sweeps)
	}

	// Same constraints, same (unique) MaxEnt optimum: the two solutions
	// must agree on every expected count within the tolerance.
	pw, pc := warm.Eval(nil), cold.Eval(nil)
	for _, c := range grown {
		ew := nGrown * warm.Get(c.Var) * warm.Deriv(c.Var) / pw
		ec := nGrown * cold.Get(c.Var) * cold.Deriv(c.Var) / pc
		if diff := ew - ec; diff > 3e-7*nGrown || diff < -3e-7*nGrown {
			t.Errorf("constraint %v: warm expectation %g vs cold %g", c.Var, ew, ec)
		}
	}
}

// TestSolveWarmStartShapeMismatch verifies that a warm start from a
// differently-shaped system is rejected instead of silently mis-seeding.
func TestSolveWarmStartShapeMismatch(t *testing.T) {
	comp1, err := polynomial.NewCompressed([]int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := polynomial.NewCompressed([]int{2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := polynomial.NewSystem(comp1)
	init := polynomial.NewSystem(comp2)
	_, err = Solve(sys, []Constraint{OneDConstraint(0, 0, 1)}, Options{N: 2, Init: init})
	if err == nil {
		t.Fatal("Solve accepted a warm start with a mismatched shape")
	}
}
