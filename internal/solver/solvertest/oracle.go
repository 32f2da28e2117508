// Package solvertest keeps the per-variable coordinate sweep that
// solver.Solve's per-attribute column sweep replaced, as the oracle the
// equivalence tests hold the solver to (Match), on random instances in
// internal/solver and on the benchmark-shaped model in internal/summary.
// The oracle also keeps, as the reference, the full rebuild and exact check
// after every sweep that solver.Solve runs only once a lower bound says the
// tolerance may be met. Nothing outside tests may import it.
package solvertest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/polynomial"
	"repro/internal/solver"
)

// Solve is the pre-column solver: the same pins, block order and
// closed-form update as solver.Solve, but every 1D variable takes its own
// Deriv → update → Set step, and every sweep ends with a full rebuild of the
// caches and the exact maximum violation, one Deriv per constraint. opts
// must be complete — N, MaxSweeps and Tolerance all set — and Init is not
// supported (warm-start by copying into sys first).
// Progress runs after every sweep with the exact maximum.
func Solve(sys *polynomial.System, constraints []solver.Constraint, opts solver.Options) solver.Report {
	if opts.N <= 0 || opts.MaxSweeps <= 0 || opts.Tolerance <= 0 || opts.Init != nil {
		panic(fmt.Sprintf("solvertest: incomplete options %+v", opts))
	}
	var active []solver.Constraint
	for _, c := range constraints {
		if c.Target == 0 {
			sys.Set(c.Var, 0)
			continue
		}
		active = append(active, c)
	}
	// The 1D constraints of one attribute are hoisted together at the
	// attribute's first occurrence; a multi-dimensional one is its own block.
	var blocks [][]solver.Constraint
	attrBlock := make(map[int]int)
	for _, c := range active {
		if c.Var.Kind != polynomial.OneD {
			blocks = append(blocks, []solver.Constraint{c})
			continue
		}
		bi, ok := attrBlock[c.Var.Attr]
		if !ok {
			bi = len(blocks)
			attrBlock[c.Var.Attr] = bi
			blocks = append(blocks, nil)
		}
		blocks[bi] = append(blocks[bi], c)
	}

	rep := solver.Report{Constraints: len(constraints)}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		rep.Sweeps = sweep
		for _, b := range blocks {
			pds := make([]float64, len(b))
			for i, c := range b {
				pds[i] = sys.Deriv(c.Var)
			}
			for i, c := range b {
				applyUpdate(sys, c, pds[i], opts)
			}
		}
		sys.Recompute()
		rep.MaxViolation = maxViolation(sys, constraints, opts.N)
		if opts.Progress != nil {
			opts.Progress(sweep, rep.MaxViolation)
		}
		if rep.MaxViolation < opts.Tolerance {
			rep.Converged = true
			break
		}
	}
	return rep
}

func applyUpdate(sys *polynomial.System, c solver.Constraint, pd float64, opts solver.Options) {
	p := sys.Total()
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) || pd <= 0 {
		return
	}
	cur := sys.Get(c.Var)
	rest := math.Max(p-cur*pd, 0)
	denom := (opts.N - c.Target) * pd
	if denom <= 0 {
		sys.Set(c.Var, math.Max(cur, 1)*1e6)
		return
	}
	next := math.Max(c.Target*rest/denom, solver.MinValue)
	if math.IsNaN(next) || math.IsInf(next, 0) {
		return
	}
	sys.Set(c.Var, next)
}

func maxViolation(sys *polynomial.System, constraints []solver.Constraint, n float64) float64 {
	p := sys.Total()
	if p <= 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, c := range constraints {
		if v := math.Abs(c.Target-n*sys.Get(c.Var)*sys.Deriv(c.Var)/p) / n; v > worst {
			worst = v
		}
	}
	return worst
}

// Free reports which attributes solver.Solve leaves out of its sweep: no
// multi-dimensional statistic names them, each of their values carries
// exactly one 1D constraint, and those targets sum exactly to n.
func Free(comp *polynomial.Compressed, cs []solver.Constraint, n float64) []bool {
	sizes := comp.DomainSizes()
	touched := make([]bool, len(sizes))
	for j := 0; j < comp.NumMultiStats(); j++ {
		for _, a := range comp.MultiStat(j).Attrs {
			touched[a] = true
		}
	}
	seen := make([]map[int]bool, len(sizes))
	sums := make([]float64, len(sizes))
	dup := make([]bool, len(sizes))
	for _, c := range cs {
		if c.Var.Kind != polynomial.OneD {
			continue
		}
		a := c.Var.Attr
		if seen[a] == nil {
			seen[a] = make(map[int]bool)
		}
		dup[a] = dup[a] || seen[a][c.Var.Value]
		seen[a][c.Var.Value] = true
		sums[a] += c.Target
	}
	free := make([]bool, len(sizes))
	for a, size := range sizes {
		free[a] = !touched[a] && !dup[a] && len(seen[a]) == size && sums[a] == n
	}
	return free
}

// Match solves a fresh system over comp with solver.Solve and with the
// oracle and fails tb unless they agree: the same sweeps and convergence,
// the maximum violation within 1e-9 relative (above the rounding floor),
// every coupled α and every δ within 1e-9 relative, each free attribute's
// shares α_{a,v} / Σ_u α_{a,u} within 1e-9 relative (the closed form fixes
// its scale where the sweep leaves whichever one it reached, and the model
// does not depend on it), and a dual that never decreases from one sweep to
// the next (Ψ is invariant under scaling one attribute).
func Match(tb testing.TB, what string, comp *polynomial.Compressed, cs []solver.Constraint, opts solver.Options) {
	tb.Helper()
	got := polynomial.NewSystem(comp)
	var duals []float64
	opts.Progress = func(int, float64) { duals = append(duals, solver.Dual(got, cs, opts.N)) }
	rep, err := solver.Solve(got, cs, opts)
	if err != nil {
		tb.Fatal(err)
	}
	// The oracle starts its free attributes at s_v/n and still sweeps them:
	// from all ones they would converge geometrically, and a loose tolerance
	// would stop the oracle before they had. Were s_v/n not the per-variable
	// sweep's fixed point, the shares below would drift apart.
	want := polynomial.NewSystem(comp)
	free := Free(comp, cs, opts.N)
	for a, n := range comp.DomainSizes() {
		if !free[a] {
			continue
		}
		vals := make([]float64, n)
		for _, c := range cs {
			if c.Var.Kind == polynomial.OneD && c.Var.Attr == a {
				vals[c.Var.Value] = c.Target / opts.N
			}
		}
		want.SetOneDColumn(a, vals, -1)
	}
	opts.Progress = nil
	oracle := Solve(want, cs, opts)

	if rep.Sweeps != oracle.Sweeps || rep.Converged != oracle.Converged {
		tb.Fatalf("%s: %d sweeps (converged %t), oracle %d (converged %t)", what, rep.Sweeps, rep.Converged, oracle.Sweeps, oracle.Converged)
	}
	// Below ~1e-13 a violation is the rounding of n-scaled expectations, not
	// a property of the weights.
	if d := math.Abs(rep.MaxViolation - oracle.MaxViolation); d > 1e-9*oracle.MaxViolation+1e-13 {
		tb.Errorf("%s: max violation %g, oracle %g", what, rep.MaxViolation, oracle.MaxViolation)
	}
	for a, n := range comp.DomainSizes() {
		gotSum, wantSum := 1.0, 1.0
		if free[a] {
			gotSum, wantSum = 0, 0
			for v := 0; v < n; v++ {
				gotSum += got.OneD(a, v)
				wantSum += want.OneD(a, v)
			}
		}
		for v := 0; v < n; v++ {
			g, w := got.OneD(a, v)/gotSum, want.OneD(a, v)/wantSum
			if d := relDiff(g, w); d > 1e-9 {
				tb.Errorf("%s: α[%d,%d] = %g, oracle %g (relative %g, free %t)", what, a, v, g, w, d, free[a])
			}
		}
	}
	for j := 0; j < comp.NumMultiStats(); j++ {
		if d := relDiff(got.MultiVar(j), want.MultiVar(j)); d > 1e-9 {
			tb.Errorf("%s: δ[%d] = %g, oracle %g (relative %g)", what, j, got.MultiVar(j), want.MultiVar(j), d)
		}
	}
	for i := 1; i < len(duals); i++ {
		if duals[i] < duals[i-1]-1e-9*math.Abs(duals[i-1]) {
			tb.Errorf("%s: dual fell from %.12g to %.12g at sweep %d", what, duals[i-1], duals[i], i+1)
		}
	}
}

// relDiff is |a − b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
