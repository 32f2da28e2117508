// Refresh: the live-ingestion path of the summary engine. A served
// summary is immutable; when the underlying relation grows, Refresh
// produces a NEW immutable *Summary reflecting the appended rows, leaving
// the old one untouched for in-flight queries — the hot-swap contract the
// serving layer builds on.
//
// Two regimes, picked by the drift fraction (delta rows / new total):
//
//   - Small deltas: the statistic counts are updated incrementally from
//     the delta alone (stats.Set.ApplyDelta — no rescan of the base data,
//     one scan of the delta per attribute set of the multi-dimensional
//     statistics) and the MaxEnt solve is warm-started from the previous
//     solution (solver.Options.Init). At the repository benchmark's shape
//     this saves no sweeps: neither start meets the tolerance within the
//     budget, so the warm and the cold solve both run all 30.
//   - Large deltas: the statistics are recounted from the full relation
//     (stats.Set.Recount, the same one scan per attribute set) and the
//     solve restarts cold. The statistic *structure* (which 1D
//     families and 2D buckets exist) is kept from the original build in
//     both regimes, so refreshed summaries stay comparable across
//     versions; re-running bucket selection is a full Build, not a
//     Refresh.

package summary

import (
	"errors"
	"fmt"

	"repro/internal/polynomial"
	"repro/internal/relation"
	"repro/internal/solver"
	"repro/internal/stats"
)

// DefaultDriftThreshold is the delta fraction beyond which Refresh
// abandons the incremental path and recounts from the full relation: with
// a quarter of the rows new, the warm start is no longer near the new
// optimum and a full recount costs little relative to the solve.
const DefaultDriftThreshold = 0.25

// RefreshOptions configure Refresh. The zero value requests the defaults
// noted on each field.
type RefreshOptions struct {
	// DriftThreshold is the fraction of appended rows (delta rows / new
	// total) beyond which Refresh falls back to a full recount + cold
	// solve (default DefaultDriftThreshold; negative disables the
	// fallback, forcing the incremental path).
	DriftThreshold float64
	// ForceRebuild skips the incremental path unconditionally.
	ForceRebuild bool
	// Solver configures the re-solve; N is filled in from the grown
	// relation and must be left zero. The zero value inherits the solver
	// defaults (which are the paper's).
	Solver solver.Options
}

// RefreshInfo reports what a Refresh did.
type RefreshInfo struct {
	// DeltaRows is the number of appended rows folded in.
	DeltaRows int
	// Drift is DeltaRows / new total rows.
	Drift float64
	// Rebuilt reports whether the fallback (full recount + cold solve)
	// path ran instead of the incremental one.
	Rebuilt bool
	// Solver is the outcome of the re-solve.
	Solver solver.Report
}

// Refresh folds appended rows into the summary and returns a new immutable
// *Summary answering over the grown relation. full must be the complete
// grown relation (base + delta, typically a relation.Mutable freeze) and
// delta the appended suffix; Refresh cross-checks their cardinalities
// against the summary's, so a mis-sliced delta fails loudly instead of
// silently double-counting. The receiver is never mutated and keeps
// answering queries throughout.
func (s *Summary) Refresh(full, delta *relation.Relation, opts RefreshOptions) (*Summary, RefreshInfo, error) {
	if full == nil || delta == nil {
		return nil, RefreshInfo{}, errors.New("summary: Refresh needs the full relation and the delta")
	}
	if opts.Solver.N != 0 {
		return nil, RefreshInfo{}, errors.New("summary: RefreshOptions.Solver.N is set from the relation; leave it zero")
	}
	base := int(s.n)
	if full.NumRows() != base+delta.NumRows() {
		return nil, RefreshInfo{}, fmt.Errorf("summary: full relation has %d rows, summary covers %d + delta %d",
			full.NumRows(), base, delta.NumRows())
	}
	if delta.NumRows() == 0 {
		// Nothing to fold in; the summary is already current.
		return s, RefreshInfo{Solver: s.report}, nil
	}
	threshold := opts.DriftThreshold
	if threshold == 0 {
		threshold = DefaultDriftThreshold
	}

	info := RefreshInfo{
		DeltaRows: delta.NumRows(),
		Drift:     float64(delta.NumRows()) / float64(full.NumRows()),
	}
	info.Rebuilt = opts.ForceRebuild || (threshold > 0 && info.Drift > threshold)

	var (
		set *stats.Set
		err error
	)
	if info.Rebuilt {
		set, err = s.set.Recount(full)
	} else {
		set = s.set.Clone()
		err = set.ApplyDelta(delta)
	}
	if err != nil {
		return nil, RefreshInfo{}, fmt.Errorf("summary: refresh statistics: %w", err)
	}

	// The statistic structure is unchanged, so the compressed polynomial
	// is reused as-is; only the variable values are re-solved.
	sys := polynomial.NewSystem(s.sys.Poly())
	constraints := constraintsOf(set)

	sopts := opts.Solver
	sopts.N = float64(set.N)
	if !info.Rebuilt {
		sopts.Init = s.sys
	}
	report, err := solver.Solve(sys, constraints, sopts)
	if err != nil {
		return nil, RefreshInfo{}, fmt.Errorf("summary: refresh solve: %w", err)
	}
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
