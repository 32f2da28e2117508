// Fold: the live-ingestion path of the summary engine. A served summary
// is immutable; when rows are appended to its dataset, Fold produces a NEW
// immutable *Summary reflecting them, leaving the old one untouched for
// in-flight queries — the hot-swap contract the serving layer builds on.
//
// The statistic counts are always updated from the delta alone
// (stats.Set.ApplyDelta — no rescan of the base data, one scan of the delta
// per attribute set of the multi-dimensional statistics); the counts are
// bit-identical to a recount of the grown relation. The statistic
// *structure* (which 1D families and 2D buckets exist) is kept from the
// original build, so refreshed summaries stay comparable across versions;
// re-running bucket selection is a full Build, not a Fold. The re-solve
// has two regimes, picked by the drift fraction (delta rows / new total):
//
//   - Small deltas: the MaxEnt solve is warm-started from the previous
//     solution (solver.Options.Init). It stops at the first sweep whose
//     exact maximum violation is below the caller's tolerance or below the
//     previous model's own (its SolverReport, which snapshots persist), so
//     a refreshed model is never farther from its constraints than the one
//     it replaces. A previous model that converged leaves the tolerance as
//     it is; one that stopped at the sweep cap (the repository benchmark's
//     shape, 1.15e-3 after 30 sweeps) is met there within one or two
//     sweeps, where a solve to the tolerance itself runs all 30 from either
//     start.
//   - Deltas past driftThreshold: the solve restarts cold. With a quarter
//     of the rows new, the previous solution is far enough from the new
//     optimum that a cold solve under the same sweep cap lands closer: on
//     the streaming drift scenario (20k-row base and batches, 30 sweeps,
//     seeds 1 and 7) it left a maximum violation of 2.7–4.5e-3 against the
//     warm solve's 5.6–6.4e-3, and a mean count error no higher, at every
//     drift from 0.20 to 0.50.

package summary

import (
	"errors"
	"fmt"

	"repro/internal/polynomial"
	"repro/internal/relation"
	"repro/internal/solver"
)

// driftThreshold is the delta fraction (delta rows / new total) beyond
// which Fold solves cold instead of from the previous solution.
const driftThreshold = 0.25

// RefreshOptions configure Fold.
type RefreshOptions struct {
	// Solver configures the re-solve; N is filled in from the folded
	// counts and must be left zero. The zero value inherits the solver
	// defaults (which are the paper's).
	Solver solver.Options
}

// RefreshInfo reports what a Fold did.
type RefreshInfo struct {
	// DeltaRows is the number of appended rows folded in.
	DeltaRows int
	// Drift is DeltaRows / new total rows.
	Drift float64
	// Rebuilt reports whether the re-solve started cold, the delta being
	// past the drift threshold, instead of from the previous solution.
	Rebuilt bool
	// Solver is the outcome of the re-solve.
	Solver solver.Report
}

// Refresh is Fold behind a cross-check that full holds exactly the rows the
// summary covers plus delta.
// Kept only because the frozen bench/ module calls it.
func (s *Summary) Refresh(full, delta *relation.Relation, opts RefreshOptions) (*Summary, RefreshInfo, error) {
	if full == nil || delta == nil {
		return nil, RefreshInfo{}, errors.New("summary: Refresh needs the full relation and the delta")
	}
	if full.NumRows() != int(s.n)+delta.NumRows() {
		return nil, RefreshInfo{}, fmt.Errorf("summary: full relation has %d rows, summary covers %d + delta %d",
			full.NumRows(), int(s.n), delta.NumRows())
	}
	return s.Fold(delta, opts)
}

// Fold folds delta, the rows appended since the summary was built or last
// folded, into a new immutable *Summary. It reads the summary's statistic
// counts and delta, and no other row: the counts are sufficient for the
// model. The receiver is never mutated and keeps answering queries
// throughout.
func (s *Summary) Fold(delta *relation.Relation, opts RefreshOptions) (*Summary, RefreshInfo, error) {
	if delta == nil {
		return nil, RefreshInfo{}, errors.New("summary: Fold needs the delta")
	}
	if opts.Solver.N != 0 {
		return nil, RefreshInfo{}, errors.New("summary: RefreshOptions.Solver.N is set from the folded counts; leave it zero")
	}
	if delta.NumRows() == 0 {
		// Nothing to fold in; the summary is already current.
		return s, RefreshInfo{Solver: s.report}, nil
	}
	info := RefreshInfo{
		DeltaRows: delta.NumRows(),
		Drift:     float64(delta.NumRows()) / float64(int(s.n)+delta.NumRows()),
	}
	info.Rebuilt = info.Drift > driftThreshold

	set := s.set.Clone()
	if err := set.ApplyDelta(delta); err != nil {
		return nil, RefreshInfo{}, fmt.Errorf("summary: refresh statistics: %w", err)
	}

	// The statistic structure is unchanged, so the compressed polynomial
	// is reused as-is; only the variable values are re-solved.
	sys := polynomial.NewSystem(s.sys.Poly())
	constraints := constraintsOf(set)

	sopts := opts.Solver
	sopts.N = float64(set.N)
	tolerance := sopts.Tolerance
	if tolerance <= 0 {
		tolerance = solver.DefaultTolerance
	}
	if !info.Rebuilt {
		sopts.Init = s.sys
		sopts.Tolerance = max(tolerance, s.report.MaxViolation)
	}
	report, err := solver.Solve(sys, constraints, sopts)
	if err != nil {
		return nil, RefreshInfo{}, fmt.Errorf("summary: refresh solve: %w", err)
	}
	// Converged answers to the caller's tolerance, not to the previous
	// model's violation the warm solve may have stopped at.
	report.Converged = report.MaxViolation < tolerance
	info.Solver = report

	p := sys.Eval(nil)
	if degenerate(p) {
		return nil, RefreshInfo{}, fmt.Errorf("summary: refreshed polynomial evaluates to %g; model is degenerate", p)
	}

	return &Summary{
		name:        s.name,
		sch:         s.sch,
		n:           float64(set.N),
		set:         set,
		sys:         sys,
		constraints: constraints,
		pairs:       s.pairs,
		report:      report,
		p:           p,
		maxCombos:   s.maxCombos,
	}, info, nil
}
