package solver_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/solver"
	"repro/internal/solver/solvertest"
)

// freeSizes is the shape of freeInstance: attributes 0 and 1 carry the 2D
// statistics, attributes 2 and 3 are free unless a test says otherwise.
var freeSizes = []int{4, 3, 5, 2}

// freeInstance counts rows correlated tuples into one constraint per 1D value
// and per statistic of specs. Value 4 of attribute 2 is never drawn (a zero
// target) and attribute 3 always holds 1 (one value carrying all N).
func freeInstance(t *testing.T, specs []polynomial.MultiStatSpec) (*polynomial.Compressed, []solver.Constraint, float64) {
	t.Helper()
	comp, err := polynomial.NewCompressed(freeSizes, specs)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3000
	rng := rand.New(rand.NewSource(29))
	oneD := make([][]float64, len(freeSizes))
	for a, n := range freeSizes {
		oneD[a] = make([]float64, n)
	}
	multi := make([]float64, len(specs))
	for i := 0; i < rows; i++ {
		t0 := rng.Intn(4)
		t1 := rng.Intn(3)
		if rng.Float64() < 0.7 {
			t1 = t0 % 3
		}
		tuple := []int{t0, t1, (t1 + rng.Intn(2)) % 4, 1}
		for a, v := range tuple {
			oneD[a][v]++
		}
		for j, spec := range specs {
			if spec.Ranges[0].Contains(tuple[spec.Attrs[0]]) && spec.Ranges[1].Contains(tuple[spec.Attrs[1]]) {
				multi[j]++
			}
		}
	}
	var cs []solver.Constraint
	for a := range oneD {
		for v, c := range oneD[a] {
			cs = append(cs, solver.OneDConstraint(a, v, c))
		}
	}
	for j, c := range multi {
		cs = append(cs, solver.MultiConstraint(j, c))
	}
	return comp, cs, rows
}

// pairSpecs are the 2D statistics over attributes 0 and 1.
func pairSpecs() []polynomial.MultiStatSpec {
	return []polynomial.MultiStatSpec{
		{Attrs: []int{0, 1}, Ranges: []query.Range{query.Point(0), query.Point(0)}},
		{Attrs: []int{0, 1}, Ranges: []query.Range{{Lo: 1, Hi: 2}, {Lo: 1, Hi: 2}}},
	}
}

// closedForm is s_v / n for every value of attr.
func closedForm(cs []solver.Constraint, attr int, n float64) []float64 {
	out := make([]float64, freeSizes[attr])
	for _, c := range cs {
		if c.Var.Kind == polynomial.OneD && c.Var.Attr == attr {
			out[c.Var.Value] = c.Target / n
		}
	}
	return out
}

// checkClosedForm fails unless every α of attr holds s_v / n bit for bit.
func checkClosedForm(t *testing.T, what string, sys *polynomial.System, cs []solver.Constraint, attr int, n float64) {
	t.Helper()
	for v, want := range closedForm(cs, attr, n) {
		if got := sys.OneD(attr, v); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: α[%d,%d] = %v, want s_v/N = %v", what, attr, v, got, want)
		}
	}
}

// TestSolveFreeAttributesClosedForm pins the closed form: a free attribute
// ends at α = s_v / N exactly, its constraints are met to rounding from the
// first sweep on (the coupled ones need not converge), a zero target stays
// at 0 and a value holding all N gets 1.
func TestSolveFreeAttributesClosedForm(t *testing.T) {
	comp, cs, n := freeInstance(t, pairSpecs())
	if free := solvertest.Free(comp, cs, n); free[0] || free[1] || !free[2] || !free[3] {
		t.Fatalf("free attributes %v, want [false false true true]", free)
	}
	sys := polynomial.NewSystem(comp)
	calls := 0
	rep, err := solver.Solve(sys, cs, solver.Options{
		N:         n,
		MaxSweeps: 10,
		Progress: func(sweep int, _ float64) {
			calls++
			for i, v := range solver.Violations(sys, cs, n) {
				if c := cs[i]; c.Var.Kind == polynomial.OneD && c.Var.Attr >= 2 && v > 1e-15 {
					t.Errorf("sweep %d: free constraint %v violated by %g", sweep, c.Var, v)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != rep.Sweeps || calls == 0 {
		t.Fatalf("%v after %d progress calls, want one per sweep", rep, calls)
	}
	checkClosedForm(t, "cold", sys, cs, 2, n)
	checkClosedForm(t, "cold", sys, cs, 3, n)
	if got := sys.OneD(2, 4); got != 0 {
		t.Errorf("zero-target α[2,4] = %v, want exactly 0", got)
	}
	if got := sys.OneD(3, 1); got != 1 {
		t.Errorf("α[3,1] holding all N = %v, want exactly 1", got)
	}
	if got := sys.Eval(query.NewPredicate(4).WhereEq(2, 4)); got != 0 {
		t.Errorf("masked P over the zero-target value = %v, want exactly 0", got)
	}
}

// TestSolveFreeAttributesWarmStart pins that a warm start whose free
// attributes sit at another scale (and another shape) still ends at s_v / N.
func TestSolveFreeAttributesWarmStart(t *testing.T) {
	comp, cs, n := freeInstance(t, pairSpecs())
	init := polynomial.NewSystem(comp)
	for v := 0; v < freeSizes[2]; v++ {
		init.SetOneD(2, v, 7.25+float64(v))
	}
	init.SetOneD(3, 0, 0.5)
	init.SetOneD(3, 1, 40)
	sys := polynomial.NewSystem(comp)
	if _, err := solver.Solve(sys, cs, solver.Options{N: n, MaxSweeps: 5, Init: init}); err != nil {
		t.Fatal(err)
	}
	checkClosedForm(t, "warm", sys, cs, 2, n)
	checkClosedForm(t, "warm", sys, cs, 3, n)
}

// TestSolveNotFreeStaysInSweep covers the attributes the closed form must
// not take: each variant leaves attribute 2 in the sweep, where the solver
// matches the per-variable oracle weight for weight (Match compares shares
// only for free attributes, so a closed-form write would fail it).
func TestSolveNotFreeStaysInSweep(t *testing.T) {
	adjust := func(cs []solver.Constraint, value int, by float64) []solver.Constraint {
		out := append([]solver.Constraint(nil), cs...)
		for i, c := range out {
			if c.Var.Kind == polynomial.OneD && c.Var.Attr == 2 && c.Var.Value == value {
				out[i].Target += by
			}
		}
		return out
	}
	missing := func(cs []solver.Constraint) []solver.Constraint {
		var out []solver.Constraint
		for _, c := range cs {
			if c.Var.Kind != polynomial.OneD || c.Var.Attr != 2 || c.Var.Value != 1 {
				out = append(out, c)
			}
		}
		return out
	}
	comp, cs, n := freeInstance(t, pairSpecs())
	touchedComp, touchedCS, _ := freeInstance(t, append(pairSpecs(), polynomial.MultiStatSpec{
		Attrs: []int{1, 2}, Ranges: []query.Range{query.Point(1), {Lo: 1, Hi: 2}},
	}))
	for _, tc := range []struct {
		what string
		comp *polynomial.Compressed
		cs   []solver.Constraint
	}{
		{"family missing a value", comp, missing(cs)},
		{"targets summing to N+1", comp, adjust(cs, 0, 1)},
		{"targets summing to N-1", comp, adjust(cs, 0, -1)},
		{"touched by a 2D statistic", touchedComp, touchedCS},
	} {
		if free := solvertest.Free(tc.comp, tc.cs, n); free[2] || !free[3] {
			t.Fatalf("%s: free attributes %v, want attribute 2 swept and 3 free", tc.what, free)
		}
		for _, tol := range []float64{1e-4, 1e-7} {
			solvertest.Match(t, tc.what, tc.comp, tc.cs, solver.Options{N: n, MaxSweeps: 25, Tolerance: tol})
		}
	}
}
