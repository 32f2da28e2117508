package solver

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/query"
)

// tinyRelation is the hand-checked instance used throughout this file: a
// relation over R(A:2, B:2) with 10 tuples distributed
//
//	(0,0): 4   (0,1): 2   (1,0): 1   (1,1): 3
//
// so the 1D statistics are A=0:6, A=1:4, B=0:5, B=1:5, and the single 2D
// statistic (A=0 ∧ B=0) has count 4 — more than the 3 the independence
// model would predict (6·5/10), so the solve must move δ above 1.
func tinyInstance(t *testing.T) (*polynomial.System, []Constraint) {
	t.Helper()
	specs := []polynomial.MultiStatSpec{{
		Attrs:  []int{0, 1},
		Ranges: []query.Range{query.Point(0), query.Point(0)},
	}}
	comp, err := polynomial.NewCompressed([]int{2, 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sys := polynomial.NewSystem(comp)
	constraints := []Constraint{
		OneDConstraint(0, 0, 6),
		OneDConstraint(0, 1, 4),
		OneDConstraint(1, 0, 5),
		OneDConstraint(1, 1, 5),
		MultiConstraint(0, 4),
	}
	return sys, constraints
}

// TestSolveTinyRelationConverges solves the hand-checked instance and
// verifies that every expected count matches its observed statistic.
func TestSolveTinyRelationConverges(t *testing.T) {
	sys, constraints := tinyInstance(t)
	const n = 10
	rep, err := Solve(sys, constraints, Options{N: n, MaxSweeps: 500, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("solver did not converge: %v", rep)
	}
	p := sys.Eval(nil)
	if p <= 0 {
		t.Fatalf("P = %g, want > 0", p)
	}
	for _, c := range constraints {
		e := n * sys.Get(c.Var) * sys.Deriv(c.Var) / p
		if math.Abs(e-c.Target) > 1e-6*n {
			t.Errorf("constraint %v: expected count %g, want %g", c.Var, e, c.Target)
		}
	}
	// The chosen 2D statistic is over-represented relative to
	// independence, so its δ must exceed 1.
	if d := sys.MultiVar(0); d <= 1 {
		t.Errorf("δ = %g, want > 1 for an over-represented statistic", d)
	}
	// The solved model must reproduce the masked counts of the
	// statistics via Eq. (16) as well: n·P_π/P.
	pred := query.NewPredicate(2).WhereEq(0, 0).WhereEq(1, 0)
	if got := n * sys.Eval(pred) / p; math.Abs(got-4) > 1e-5 {
		t.Errorf("masked count for (A=0,B=0) = %g, want 4", got)
	}
}

// TestSolveMonotoneDual verifies the coordinate updates never decrease
// the concave dual objective Ψ.
func TestSolveMonotoneDual(t *testing.T) {
	sys, constraints := tinyInstance(t)
	last := math.Inf(-1)
	_, err := Solve(sys, constraints, Options{
		N:         10,
		MaxSweeps: 50,
		Tolerance: 1e-12,
		Progress: func(sweep int, _ float64) {
			d := Dual(sys, constraints, 10)
			if d < last-1e-9 {
				t.Errorf("sweep %d: dual decreased from %g to %g", sweep, last, d)
			}
			last = d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolveZeroTargetPinsVariable verifies the ZERO-cell shortcut at every
// tolerance from the paper's 1e-6 down to 1e-12: a zero-count statistic pins
// its δ at exactly 0, and the model assigns the cell no mass. The masked
// count n·P_π/P is a difference of terms that cancel (the cell's term and
// its (δ−1) = −1 twin), so it comes out at the rounding of n, not exactly 0;
// it must stay at most 1e-12, which rounds to 0 — metrics rounds an estimate
// before it classifies a value as existing or not.
func TestSolveZeroTargetPinsVariable(t *testing.T) {
	specs := []polynomial.MultiStatSpec{{
		Attrs:  []int{0, 1},
		Ranges: []query.Range{query.Point(1), query.Point(1)},
	}}
	comp, err := polynomial.NewCompressed([]int{2, 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	constraints := []Constraint{
		OneDConstraint(0, 0, 6),
		OneDConstraint(0, 1, 4),
		OneDConstraint(1, 0, 6),
		OneDConstraint(1, 1, 4),
		MultiConstraint(0, 0),
	}
	pred := query.NewPredicate(2).WhereEq(0, 1).WhereEq(1, 1)
	for _, tol := range []float64{1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12} {
		sys := polynomial.NewSystem(comp)
		rep, err := Solve(sys, constraints, Options{N: 10, MaxSweeps: 500, Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged {
			t.Fatalf("tolerance %g: solver did not converge: %v", tol, rep)
		}
		if d := sys.MultiVar(0); d != 0 {
			t.Fatalf("tolerance %g: zero-target δ = %g, want exactly 0", tol, d)
		}
		if got := 10 * sys.Eval(pred) / sys.Eval(nil); math.Abs(got) > 1e-12 {
			t.Fatalf("tolerance %g: masked count over zero cell = %g, want at most 1e-12", tol, got)
		}
	}
}

// TestSolvePinnedValueStaysZeroThroughColumnWrite pins that a zero-target 1D
// value stays exactly 0 while its attribute's column is written back every
// sweep around it — also when a warm start hands it a non-zero value — so
// the model gives its cell exactly no mass.
func TestSolvePinnedValueStaysZeroThroughColumnWrite(t *testing.T) {
	specs := []polynomial.MultiStatSpec{{
		Attrs:  []int{0, 1},
		Ranges: []query.Range{{Lo: 1, Hi: 2}, query.Point(0)},
	}}
	comp, err := polynomial.NewCompressed([]int{3, 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	constraints := []Constraint{
		OneDConstraint(0, 0, 6),
		OneDConstraint(0, 1, 0),
		OneDConstraint(0, 2, 4),
		OneDConstraint(1, 0, 5),
		OneDConstraint(1, 1, 5),
		MultiConstraint(0, 3),
	}
	sys := polynomial.NewSystem(comp)
	pinned := query.NewPredicate(2).WhereEq(0, 1)
	check := func(when string) {
		if x := sys.OneD(0, 1); x != 0 {
			t.Fatalf("%s: pinned α[0,1] = %g, want exactly 0", when, x)
		}
		if got := sys.Eval(pinned); got != 0 {
			t.Fatalf("%s: masked P over the pinned value = %g, want exactly 0", when, got)
		}
	}
	rep, err := Solve(sys, constraints, Options{
		N:         10,
		MaxSweeps: 200,
		Tolerance: 1e-10,
		Init:      polynomial.NewSystem(comp), // every α at 1, the pinned one included
		Progress:  func(sweep int, _ float64) { check(fmt.Sprintf("sweep %d", sweep)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("solver did not converge: %v", rep)
	}
	check("after the solve")
}

// TestSolveRejectsBadTargets pins the input validation.
func TestSolveRejectsBadTargets(t *testing.T) {
	sys, _ := tinyInstance(t)
	if _, err := Solve(sys, []Constraint{OneDConstraint(0, 0, -1)}, Options{N: 10}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := Solve(sys, []Constraint{OneDConstraint(0, 0, 11)}, Options{N: 10}); err == nil {
		t.Error("target above N accepted")
	}
	if _, err := Solve(sys, nil, Options{N: 0}); err == nil {
		t.Error("non-positive N accepted")
	}
	sys2, cs := tinyInstance(t)
	if _, err := Solve(sys2, cs, Options{N: 10, Relaxation: 2.5}); err == nil {
		t.Error("relaxation outside (0,2) accepted")
	}
	sys3, cs3 := tinyInstance(t)
	if _, err := Solve(sys3, cs3, Options{N: 10, Relaxation: -1}); err == nil {
		t.Error("negative relaxation accepted")
	}
	sys4, cs4 := tinyInstance(t)
	if _, err := Solve(sys4, cs4, Options{N: 10, Relaxation: math.NaN()}); err == nil {
		t.Error("NaN relaxation accepted")
	}
}

// TestSolveOverRelaxationConvergesFaster verifies that the geometric
// over-relaxation option accelerates the sublinear tail of coordinate
// descent: on the hand-checked relation, ω = 1.2 must converge to the same
// solution in strictly fewer sweeps than the plain ω = 1 update.
func TestSolveOverRelaxationConvergesFaster(t *testing.T) {
	const n, tol = 10, 1e-9
	plainSys, constraints := tinyInstance(t)
	plain, err := Solve(plainSys, constraints, Options{N: n, MaxSweeps: 5000, Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	relaxedSys, _ := tinyInstance(t)
	relaxed, err := Solve(relaxedSys, constraints, Options{N: n, MaxSweeps: 5000, Tolerance: tol, Relaxation: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !relaxed.Converged {
		t.Fatalf("not converged: plain %v, relaxed %v", plain, relaxed)
	}
	if relaxed.Sweeps >= plain.Sweeps {
		t.Errorf("over-relaxation took %d sweeps, plain descent %d; want fewer", relaxed.Sweeps, plain.Sweeps)
	}
	// Both runs must land on the same MaxEnt distribution. The α values
	// themselves are not unique (the overcomplete 1D families leave a
	// per-attribute scale degeneracy), so compare tuple probabilities.
	pPlain, pRelaxed := plainSys.Eval(nil), relaxedSys.Eval(nil)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			tuple := []int{a, b}
			x := plainSys.TupleWeight(tuple) / pPlain
			y := relaxedSys.TupleWeight(tuple) / pRelaxed
			if math.Abs(x-y) > 1e-6 {
				t.Errorf("tuple %v: plain probability %g, relaxed %g", tuple, x, y)
			}
		}
	}
}

// TestSolveMatchesLegacyViolation is the cross-PR acceptance check: the
// incremental solver must satisfy the constraints of the hand-checked
// relation to within 1e-9 relative violation, matching the full
// re-evaluation solver it replaced.
func TestSolveMatchesLegacyViolation(t *testing.T) {
	sys, constraints := tinyInstance(t)
	rep, err := Solve(sys, constraints, Options{N: 10, MaxSweeps: 5000, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("solver did not converge: %v", rep)
	}
	// Recheck the violations on a rebuilt (drift-free) clone of the solved
	// system, so the assertion is on the true polynomial values.
	fresh := sys.Clone()
	for i, v := range Violations(fresh, constraints, 10) {
		if v > 1e-9 {
			t.Errorf("constraint %v: violation %g > 1e-9", constraints[i].Var, v)
		}
	}
}
