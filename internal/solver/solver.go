// Package solver computes the MaxEnt model parameters: the values of the
// polynomial variables α_j such that the expected value of every statistic
// under the model matches its observed count (Sec. 3.3 of the paper).
//
// Maximizing the concave dual Ψ = Σ_j s_j ln α_j − n ln P is done with the
// coordinate-wise mirror-descent scheme of Algorithm 1: each step picks one
// statistic j and solves ∂Ψ/∂α_j = 0 in closed form while holding every
// other variable fixed,
//
//	α_j ← s_j · (P − α_j·P_{α_j}) / ((n − s_j) · P_{α_j}).
//
// Statistics with s_j = 0 are pinned at α_j = 0, the shortcut the paper
// notes for ZERO-cell statistics.
//
// The sweep is organized in per-attribute blocks. Because P is multilinear
// and the variables of one attribute never co-occur in a factor, the
// partial derivative ∂P/∂α_{a,v} contains no α_{a,·} at all. A block
// therefore reads its whole derivative column once
// (polynomial.System.DerivColumn with no predicate), applies the
// closed-form updates in order while carrying P forward as
// P += (α' − α)·∂P/∂α — exactly the Gauss–Seidel semantics of the
// one-at-a-time sweep, since P is linear in each variable — and writes the
// column back with one SetOneDColumn: two passes over the terms per
// attribute, where a per-variable step paid about one per value. A
// multi-dimensional statistic's derivative does depend on the δ variables
// it shares a term with, so it keeps its single-variable step. The
// statistics of one pair in a stats.Set share no term and could form one
// block, but that block would do the same work as their single steps: one
// Deriv and one SetMulti each.
//
// A sweep pays for its updates only. The violations of the first block
// under the state a sweep ends in are exact, so their maximum bounds the
// maximum over all constraints from below, and their column is the read the
// next sweep opens with anyway. Only when that bound falls below the
// tolerance, or after the last sweep, are the caches rebuilt with a full
// evaluation and every constraint judged: the same stop rule as a check
// after every sweep, and every solve ends on freshly rebuilt caches. In
// between, the System's own drift budget (a full rebuild every few thousand
// updates) bounds floating-point drift.
//
// Only coupled attributes are swept. An attribute is free when no
// multi-dimensional statistic names it, every value carries a 1D constraint
// and the targets sum exactly to n (a stats.Set always meets the last two).
// It is then a common factor of every term, P = F_a·R with F_a = Σ_v α_{a,v},
// so α_{a,v} = s_v/n solves its constraints exactly and F_a cancels out of
// every other update: it is written once before the first sweep, and each
// convergence check reads its constant column P/F_a without a term pass.
package solver

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/polynomial"
)

// Constraint is one expected-value constraint E[⟨c_j, I⟩] = Target attached
// to the polynomial variable Var.
type Constraint struct {
	Var    polynomial.VarRef
	Target float64
}

// OneDConstraint builds the constraint pinning the expected count of the
// 1-dimensional statistic (A_attr = value) to target.
func OneDConstraint(attr, value int, target float64) Constraint {
	return Constraint{
		Var:    polynomial.VarRef{Kind: polynomial.OneD, Attr: attr, Value: value},
		Target: target,
	}
}

// MultiConstraint builds the constraint pinning the expected count of the
// stat-th multi-dimensional statistic to target.
func MultiConstraint(stat int, target float64) Constraint {
	return Constraint{
		Var:    polynomial.VarRef{Kind: polynomial.Multi, Stat: stat},
		Target: target,
	}
}

// MinValue is the floor a variable with a positive target is clamped to,
// protecting against numerical underflow.
const MinValue = 1e-12

// DefaultTolerance is the convergence threshold a zero Options.Tolerance
// asks for: the paper's 1e-6 on the maximum relative constraint violation.
const DefaultTolerance = 1e-6

// Options configure the solver. The update itself has no knobs: every
// step is Algorithm 1's closed form, clamped below at MinValue.
type Options struct {
	// N is the relation cardinality (required, > 0).
	N float64
	// MaxSweeps bounds the number of full passes over the constraints
	// (default 30, the paper's iteration budget).
	MaxSweeps int
	// Tolerance is the convergence threshold on the maximum relative
	// constraint violation max_j |s_j − E[⟨c_j,I⟩]| / N (default
	// DefaultTolerance, the paper's threshold).
	Tolerance float64
	// Init, when non-nil, warm-starts the solve: the variable assignment of
	// this previously solved system is copied into sys before the first
	// sweep, replacing the all-ones cold start. When the constraint targets
	// moved only a little (a small ingestion delta), the previous optimum is
	// already near-feasible, so a solve that converges needs fewer sweeps
	// from it. At the same Tolerance, one that exhausts MaxSweeps either way
	// saves none (at the repository benchmark's shape, a warm and a cold
	// solve both run all 30); summary.Refresh therefore raises the Tolerance
	// of its warm solve to the violation of the model it replaces, which a
	// warm start from that model meets there within one or two sweeps.
	// Init must have the same shape as sys (domain sizes and statistic
	// count); it is read-only during the solve.
	Init *polynomial.System
	// Progress, when non-nil, is called after every sweep with the sweep
	// number and a violation that is never above the exact maximum: the
	// first block's maximum (a lower bound) while that stays at or above
	// Tolerance, and the exact maximum after a sweep whose bound fell below
	// it and after the last sweep. It must not modify the system.
	Progress func(sweep int, maxViolation float64)
}

func (o *Options) setDefaults() error {
	if o.N <= 0 {
		return errors.New("solver: Options.N must be positive")
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 30
	}
	if o.Tolerance <= 0 {
		o.Tolerance = DefaultTolerance
	}
	return nil
}

// Report describes the outcome of a Solve call.
type Report struct {
	// Sweeps is the number of full passes performed.
	Sweeps int
	// MaxViolation is the final maximum relative constraint violation.
	MaxViolation float64
	// Converged reports whether MaxViolation fell below the tolerance.
	Converged bool
	// Duration is the wall-clock solving time.
	Duration time.Duration
	// Constraints is the number of constraints solved for.
	Constraints int
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("solver: %d constraints, %d sweeps, max violation %.3g, converged=%t, %s",
		r.Constraints, r.Sweeps, r.MaxViolation, r.Converged, r.Duration.Round(time.Millisecond))
}

// block is one unit of the sweep: the constraints of a single attribute
// (attr ≥ 0), whose derivatives come from one column read and whose values
// go back in one column write, or a single multi-dimensional constraint
// (attr = -1), whose derivative depends on the other δ variables and which
// therefore keeps its single-variable step.
type block struct {
	attr int
	cs   []Constraint
}

// planBlocks groups the active constraints into sweep blocks, preserving
// the first-occurrence order of attributes and the given order within each
// block. When 1D constraints of one attribute interleave with other
// constraints, grouping hoists them together, so the update order is the
// grouped order — a fixed, deterministic permutation of the caller's order,
// not the flat sweep itself.
func planBlocks(active []Constraint) []block {
	var blocks []block
	attrBlock := make(map[int]int)
	for i, c := range active {
		if c.Var.Kind == polynomial.OneD {
			bi, ok := attrBlock[c.Var.Attr]
			if !ok {
				bi = len(blocks)
				attrBlock[c.Var.Attr] = bi
				blocks = append(blocks, block{attr: c.Var.Attr})
			}
			blocks[bi].cs = append(blocks[bi].cs, c)
			continue
		}
		blocks = append(blocks, block{attr: -1, cs: active[i : i+1 : i+1]})
	}
	return blocks
}

// Solve runs coordinate mirror descent on the system until convergence or
// the sweep budget is exhausted. The system's variables are updated in
// place.
func Solve(sys *polynomial.System, constraints []Constraint, opts Options) (Report, error) {
	start := time.Now()
	if err := opts.setDefaults(); err != nil {
		return Report{}, err
	}
	if len(constraints) == 0 {
		return Report{Converged: true, Duration: time.Since(start)}, nil
	}
	for _, c := range constraints {
		if c.Target < 0 {
			return Report{}, fmt.Errorf("solver: constraint %v has negative target %g", c.Var, c.Target)
		}
		if c.Target > opts.N {
			return Report{}, fmt.Errorf("solver: constraint %v target %g exceeds relation size %g", c.Var, c.Target, opts.N)
		}
	}

	if opts.Init != nil {
		if err := sys.CopyVarsFrom(opts.Init); err != nil {
			return Report{}, fmt.Errorf("solver: warm start: %w", err)
		}
	}

	// Solve the free attributes once, in closed form; they leave the sweep.
	free := freeAttrs(sys.Poly(), constraints, opts.N)
	for a, vals := range free {
		if vals != nil {
			sys.SetOneDColumn(a, vals)
		}
	}

	// Pin zero-target statistics once: their variables stay at 0 for the
	// whole run, and they are excluded from the sweep (their constraints
	// are satisfied by construction). Under a warm start this also resets
	// variables whose target dropped to 0 since the previous solve.
	active := make([]Constraint, 0, len(constraints))
	for _, c := range constraints {
		if c.Var.Kind == polynomial.OneD && free[c.Var.Attr] != nil {
			continue
		}
		if c.Target == 0 {
			sys.Set(c.Var, 0)
			continue
		}
		active = append(active, c)
	}
	blocks := planBlocks(active)
	cols := columnsFor(sys, constraints)
	vals := make([]float64, slices.Max(sys.Poly().DomainSizes()))

	rep := Report{Constraints: len(constraints)}
	// primed marks that the last sweep's bound left the first block's
	// derivatives (pd0, or its column in cols) read under the current state.
	primed, pd0 := false, 0.0
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		rep.Sweeps = sweep
		for i, b := range blocks {
			pd := pd0
			if i > 0 || !primed {
				pd = read(sys, b, cols)
			}
			if b.attr < 0 {
				c := b.cs[0]
				if next, ok := update(sys.Get(c.Var), pd, sys.Total(), c.Target, opts.N); ok {
					sys.Set(c.Var, next)
				}
				continue
			}
			col := cols[b.attr]
			vals = vals[:len(col)]
			for v := range vals {
				vals[v] = sys.OneD(b.attr, v)
			}
			// P is linear in each α_{a,v} and the column holds no α_{a,·}, so
			// carrying P through the block is exact Gauss–Seidel.
			p := sys.Total()
			for _, c := range b.cs {
				v := c.Var.Value
				if next, ok := update(vals[v], col[v], p, c.Target, opts.N); ok {
					p += (next - vals[v]) * col[v]
					vals[v] = next
				}
			}
			sys.SetOneDColumn(b.attr, vals)
		}
		// The first block's violations under the state the sweep ended in
		// bound the maximum from below, and their read is the one the next
		// sweep opens with. Only a bound below the tolerance, or the last
		// sweep, pays for the full check: a rebuild of the caches, then every
		// constraint judged on it.
		primed, rep.MaxViolation = false, 0
		if sweep < opts.MaxSweeps && len(blocks) > 0 {
			pd0 = read(sys, blocks[0], cols)
			primed, rep.MaxViolation = true, blockViolation(sys, blocks[0], cols, pd0, opts.N)
		}
		if rep.MaxViolation < opts.Tolerance {
			sys.Recompute()
			primed, rep.MaxViolation = false, violations(sys, constraints, opts.N, cols, free, nil)
		}
		if opts.Progress != nil {
			opts.Progress(sweep, rep.MaxViolation)
		}
		if rep.MaxViolation < opts.Tolerance {
			rep.Converged = true
			break
		}
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// update is the closed-form coordinate update of Algorithm 1 for a variable
// at cur whose partial derivative is pd under the polynomial value p. It
// reports false when there is nothing to solve for.
func update(cur, pd, p, target, n float64) (float64, bool) {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return 0, false
	}
	if pd <= 0 {
		// The variable does not influence P under the current assignment
		// (for example, every complementary variable of its terms is 0);
		// there is nothing to solve for.
		return 0, false
	}
	rest := p - cur*pd // P with α_j removed; never contains α_j since P is linear.
	if rest < 0 {
		rest = 0
	}
	denom := (n - target) * pd
	if denom <= 0 {
		// Target equals the relation size: drive the variable as high as is
		// numerically sensible so the statistic captures (almost) all mass.
		return math.Max(cur, 1) * 1e6, true
	}
	next := target * rest / denom
	if next < MinValue {
		next = MinValue
	}
	if math.IsNaN(next) || math.IsInf(next, 0) {
		return 0, false
	}
	return next, true
}

// read reads block b's derivatives under the current assignment: an
// attribute block's column into cols[b.attr], or a δ block's single
// derivative, which it returns (0 for an attribute block).
func read(sys *polynomial.System, b block, cols [][]float64) float64 {
	if b.attr < 0 {
		return sys.Deriv(b.cs[0].Var)
	}
	sys.DerivColumn(b.attr, nil, cols[b.attr])
	return 0
}

// blockViolation returns the largest violation among block b's constraints
// from the derivatives read left for it: pd for a δ block, cols[b.attr] for
// an attribute block.
func blockViolation(sys *polynomial.System, b block, cols [][]float64, pd, n float64) float64 {
	p, worst := sys.Total(), 0.0
	for _, c := range b.cs {
		if b.attr >= 0 {
			pd = cols[b.attr][c.Var.Value]
		}
		worst = max(worst, violation(c.Target, sys.Get(c.Var), pd, p, n))
	}
	return worst
}

// violation is |s_j − E[⟨c_j,I⟩]| / n for a constraint with the given
// target whose variable holds x with partial derivative pd under the
// polynomial value p; a non-positive p violates everything.
func violation(target, x, pd, p, n float64) float64 {
	if !(p > 0) {
		return math.Inf(1)
	}
	return math.Abs(target-n*x*pd/p) / n
}

// columnsFor allocates one derivative column per attribute some 1D
// constraint names (nil for the others).
func columnsFor(sys *polynomial.System, constraints []Constraint) [][]float64 {
	sizes := sys.Poly().DomainSizes()
	cols := make([][]float64, len(sizes))
	for _, c := range constraints {
		if a := c.Var.Attr; c.Var.Kind == polynomial.OneD && cols[a] == nil {
			cols[a] = make([]float64, sizes[a])
		}
	}
	return cols
}

// freeAttrs returns, for each free attribute — no multi-dimensional
// statistic names it, each of its values carries exactly one 1D constraint,
// and the targets sum exactly to n — its closed-form solution
// α_{a,v} = s_v / n, and nil for every other attribute.
//
// A free attribute is a common factor of every term, P = F_a·R with
// F_a = Σ_v α_{a,v}, so its derivative column is the constant P/F_a, its
// expectations are n·α_v/F_a, and s_v/n satisfies its constraints exactly
// whatever the other variables hold. Nor does it move any other update: the
// coupled closed forms depend on P and their derivatives only through ratios
// in which F_a cancels.
func freeAttrs(poly *polynomial.Compressed, constraints []Constraint, n float64) [][]float64 {
	sizes := poly.DomainSizes()
	touched := make([]bool, len(sizes))
	for j := 0; j < poly.NumMultiStats(); j++ {
		for _, a := range poly.MultiStat(j).Attrs {
			touched[a] = true
		}
	}
	// Values start at -1, below any target: one left there is unconstrained,
	// and one constrained twice disqualifies its attribute.
	free := make([][]float64, len(sizes))
	for _, c := range constraints {
		a := c.Var.Attr
		if c.Var.Kind != polynomial.OneD || touched[a] {
			continue
		}
		if free[a] == nil {
			free[a] = make([]float64, sizes[a])
			for v := range free[a] {
				free[a][v] = -1
			}
		}
		if free[a][c.Var.Value] >= 0 {
			touched[a] = true
		}
		free[a][c.Var.Value] = c.Target
	}
	for a, s := range free {
		sum := 0.0
		for _, t := range s {
			sum += t
		}
		if s == nil || touched[a] || slices.Min(s) < 0 || sum != n {
			free[a] = nil
			continue
		}
		for v := range s {
			s[v] /= n
		}
	}
	return free
}

// violations returns max_j |s_j − E[⟨c_j,I⟩]| / N under the current
// assignment and, when out is non-nil, stores each constraint's violation
// at its index. The 1D expectations come from one column read per attribute
// into cols (as columnsFor shapes it), except that a free attribute (free[a]
// non-nil, as freeAttrs returns it; free may be nil) fills its column with
// the constant P/F_a without a term pass; a non-positive P violates
// everything.
func violations(sys *polynomial.System, constraints []Constraint, n float64, cols, free [][]float64, out []float64) float64 {
	p := sys.Total()
	ok := p > 0
	if ok {
		for a, col := range cols {
			switch {
			case col == nil:
			case free != nil && free[a] != nil:
				f := 0.0
				for v := range col {
					f += sys.OneD(a, v)
				}
				for v := range col {
					col[v] = p / f
				}
			default:
				sys.DerivColumn(a, nil, col)
			}
		}
	}
	worst := 0.0
	for i, c := range constraints {
		v := math.Inf(1)
		if ok {
			var pd float64
			if c.Var.Kind == polynomial.OneD {
				pd = cols[c.Var.Attr][c.Var.Value]
			} else {
				pd = sys.Deriv(c.Var)
			}
			v = violation(c.Target, sys.Get(c.Var), pd, p, n)
		}
		if out != nil {
			out[i] = v
		}
		worst = max(worst, v)
	}
	return worst
}

// Violations returns the per-constraint relative violations |s_j − E_j| / N
// under the current assignment, index-aligned with constraints. It is used
// by diagnostics and tests.
func Violations(sys *polynomial.System, constraints []Constraint, n float64) []float64 {
	out := make([]float64, len(constraints))
	violations(sys, constraints, n, columnsFor(sys, constraints), nil, out)
	return out
}

// Dual computes the dual objective Ψ = Σ_j s_j ln α_j − n ln P for the
// current assignment, skipping pinned zero-target statistics (whose
// contribution is 0·ln 0 = 0 in the limit). It is exposed for tests that
// verify the coordinate updates never decrease Ψ.
func Dual(sys *polynomial.System, constraints []Constraint, n float64) float64 {
	p := sys.Total()
	if p <= 0 {
		return math.Inf(-1)
	}
	total := -n * math.Log(p)
	for _, c := range constraints {
		if c.Target == 0 {
			continue
		}
		v := sys.Get(c.Var)
		if v <= 0 {
			return math.Inf(-1)
		}
		total += c.Target * math.Log(v)
	}
	return total
}
