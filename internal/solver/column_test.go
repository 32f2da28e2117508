package solver_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/raceflag"
	"repro/internal/solver"
	"repro/internal/solver/solvertest"
)

// randomInstance draws a small solve whose targets count real tuples (so
// they are feasible): 2–4 attributes of 2–9 values, one or two attribute
// pairs carrying 2D rectangles, a correlated tuple stream, and the last
// value of attribute 0 never drawn, so at least one 1D variable is pinned at
// 0 inside a block that is still solved. A pair's rectangles are one or two
// values wide on its first attribute and start one to three values apart, so
// some of them overlap — which a stats.Set would refuse, but the polynomial
// allows — and in other instances all of a pair's are disjoint. The
// constraints come back shuffled, so the solver's block grouping is
// exercised too.
func randomInstance(rng *rand.Rand) (*polynomial.Compressed, []solver.Constraint, float64) {
	m := 2 + rng.Intn(3)
	sizes := make([]int, m)
	for a := range sizes {
		sizes[a] = 2 + rng.Intn(8)
	}
	var specs []polynomial.MultiStatSpec
	for _, pair := range [][2]int{{0, 1}, {1, m - 1}}[:1+rng.Intn(2)] {
		a1, a2 := pair[0], pair[1]
		if a1 == a2 {
			continue
		}
		for lo := 0; lo < sizes[a1]; lo += 1 + rng.Intn(3) {
			hi := min(lo+rng.Intn(2), sizes[a1]-1)
			l2 := rng.Intn(sizes[a2])
			h2 := l2 + rng.Intn(sizes[a2]-l2)
			specs = append(specs, polynomial.MultiStatSpec{
				Attrs:  []int{a1, a2},
				Ranges: []query.Range{{Lo: lo, Hi: hi}, {Lo: l2, Hi: h2}},
			})
		}
	}
	comp, err := polynomial.NewCompressed(sizes, specs)
	if err != nil {
		panic(err)
	}

	const rows = 5000
	oneD := make([][]float64, m)
	for a, n := range sizes {
		oneD[a] = make([]float64, n)
	}
	multi := make([]float64, len(specs))
	tuple := make([]int, m)
	for i := 0; i < rows; i++ {
		tuple[0] = rng.Intn(sizes[0] - 1)
		for a := 1; a < m; a++ {
			tuple[a] = rng.Intn(sizes[a])
			if rng.Float64() < 0.6 {
				tuple[a] = tuple[a-1] % sizes[a]
			}
		}
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
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return comp, cs, rows
}

// TestSolveMatchesPerVariableSweep holds the block sweep to the
// per-variable sweep it replaced on random small instances, to a loose and
// a tight tolerance (neither at the rounding floor, where "converged" would
// be a coin toss). Instances with no free attribute keep the strict
// per-weight comparison exercised on every α; the others hold free
// attributes to their shares. Instances whose same-pair rectangles are
// pairwise disjoint, as a stats.Set's are, must occur, and so must
// instances with an overlap, which the polynomial allows.
func TestSolveMatchesPerVariableSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	withFree, withoutFree, exclusive, overlapping := 0, 0, 0, 0
	for i := 0; i < 40; i++ {
		comp, cs, n := randomInstance(rng)
		if slices.Contains(solvertest.Free(comp, cs, n), true) {
			withFree++
		} else {
			withoutFree++
		}
		if sameSetOverlap(comp) {
			overlapping++
		} else {
			exclusive++
		}
		for _, tol := range []float64{1e-4, 1e-7} {
			opts := solver.Options{N: n, MaxSweeps: 25, Tolerance: tol}
			solvertest.Match(t, "random instance", comp, cs, opts)
		}
	}
	if withFree == 0 || withoutFree == 0 {
		t.Errorf("%d instances with a free attribute, %d without: want both kinds", withFree, withoutFree)
	}
	if exclusive == 0 || overlapping == 0 {
		t.Errorf("%d instances with pairwise exclusive same-pair statistics, %d with an overlap: want both kinds", exclusive, overlapping)
	}
}

// sameSetOverlap reports whether two multi-dimensional statistics over the
// same attributes overlap.
func sameSetOverlap(comp *polynomial.Compressed) bool {
	for j := range comp.NumMultiStats() {
		for k := range j {
			a, b := comp.MultiStat(j), comp.MultiStat(k)
			meet := slices.Equal(a.Attrs, b.Attrs)
			for q := range a.Ranges {
				meet = meet && a.Ranges[q].Overlaps(b.Ranges[q])
			}
			if meet {
				return true
			}
		}
	}
	return false
}

// TestSolveProgressBoundsTheViolation pins what Progress reports after each
// sweep: never more than the exact maximum violation of the state the sweep
// ended in, and that maximum itself (to 1e-12 relative, above the rounding
// floor) whenever the report is below the tolerance or the sweep is the
// last. Report.MaxViolation is the exact maximum after the solve. Both kinds
// of opening block — an attribute column and a single δ — supply the bound.
func TestSolveProgressBoundsTheViolation(t *testing.T) {
	const maxSweeps = 25
	same := func(got, exact float64) bool { return math.Abs(got-exact) <= 1e-12*exact+1e-15 }
	rng := rand.New(rand.NewSource(31))
	opensWith := map[polynomial.VarKind]int{}
	for i := 0; i < 40; i++ {
		comp, cs, n := randomInstance(rng)
		opensWith[firstSwept(comp, cs, n)]++
		for _, tol := range []float64{1e-4, 1e-7} {
			sys := polynomial.NewSystem(comp)
			exact := func() float64 { return slices.Max(solver.Violations(sys, cs, n)) }
			opts := solver.Options{N: n, MaxSweeps: maxSweeps, Tolerance: tol}
			opts.Progress = func(sweep int, got float64) {
				want := exact()
				if got > want {
					t.Errorf("instance %d, tolerance %g, sweep %d: reported %g above the exact maximum %g", i, tol, sweep, got, want)
				}
				if (got < tol || sweep == maxSweeps) && !same(got, want) {
					t.Errorf("instance %d, tolerance %g, sweep %d: reported %g, exact maximum %g", i, tol, sweep, got, want)
				}
			}
			rep, err := solver.Solve(sys, cs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := exact(); !same(rep.MaxViolation, want) {
				t.Errorf("instance %d, tolerance %g: Report.MaxViolation %g, exact maximum %g", i, tol, rep.MaxViolation, want)
			}
		}
	}
	if opensWith[polynomial.OneD] == 0 || opensWith[polynomial.Multi] == 0 {
		t.Errorf("sweeps opened with an attribute block %d times, a δ block %d times: want both", opensWith[polynomial.OneD], opensWith[polynomial.Multi])
	}
}

// firstSwept returns the kind of the first constraint the solver sweeps: the
// first one in cs with a positive target that is not on a free attribute.
func firstSwept(comp *polynomial.Compressed, cs []solver.Constraint, n float64) polynomial.VarKind {
	free := solvertest.Free(comp, cs, n)
	for _, c := range cs {
		if c.Target > 0 && (c.Var.Kind != polynomial.OneD || !free[c.Var.Attr]) {
			return c.Var.Kind
		}
	}
	return -1
}

// TestSolveSweepAllocatesNothing pins that the column and value buffers are
// allocated once per Solve: after the first sweep has sized the kernel's
// recycled column buffers, a sweep allocates nothing.
func TestSolveSweepAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	comp, cs, n := randomInstance(rand.New(rand.NewSource(3)))
	allocs := func(sweeps int) float64 {
		return testing.AllocsPerRun(5, func() {
			rep, err := solver.Solve(polynomial.NewSystem(comp), cs, solver.Options{N: n, MaxSweeps: sweeps, Tolerance: 1e-300})
			if err != nil || rep.Sweeps != sweeps {
				t.Fatalf("%v after %d sweeps, want all %d: %v", rep, rep.Sweeps, sweeps, err)
			}
		})
	}
	if one, seven := allocs(1), allocs(7); seven != one {
		t.Errorf("a 1-sweep solve allocates %.0f times, a 7-sweep one %.0f: sweeps after the first allocate", one, seven)
	}
}
