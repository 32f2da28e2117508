// Package summary is the orchestration layer of the EntropyDB
// reproduction: it composes the statistics subsystem, the factorized
// MaxEnt polynomial, and the coordinate-descent solver into the paper's
// core loop (Sec. 3–4):
//
//	relation → 1D complete stats → multi-dimensional statistic selection
//	         → compressed polynomial → solved MaxEnt model → query answering
//
// Build runs the pipeline end to end and returns a Summary, a compact
// probabilistic model of the relation that answers counting and group-by
// queries via masked polynomial evaluation (Eq. 16): the estimated count
// of σ_π(I) is n · P_π / P, where P_π is the polynomial with every
// 1-dimensional variable outside the predicate set to 0.
//
// Summary implements core.Estimator, so the experiment harness drives it
// through the same interface as the exact engine and the sampling
// baselines.
package summary

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/stats"
)

// Options configure Build. The zero value requests the defaults noted on
// each field.
type Options struct {
	// PairBudget is B_a, the number of attribute pairs that receive
	// multi-dimensional statistics (default 2; negative means none, which
	// yields the pure independence model over the 1D statistics).
	PairBudget int
	// PerPairBudget is B_s, the number of 2D statistics per chosen pair
	// (default 8).
	PerPairBudget int
	// Policy is not read: pairs are chosen by stats.SelectPairs. It stays
	// only because the frozen bench/ module passes it to stats.SelectMulti.
	Policy stats.PairPolicy
	// Heuristic selects the per-pair bucket heuristic (default
	// LargeSingleCell).
	Heuristic stats.Heuristic
	// Solver configures the MaxEnt solve; N is filled in from the
	// relation and must be left zero.
	Solver solver.Options
}

// maxGroupCombos bounds the number of value combinations a built summary's
// EstimateGroupBy will enumerate. A snapshot records the bound its summary
// was built with.
const maxGroupCombos = 1 << 16

func (o *Options) setDefaults() {
	if o.PairBudget == 0 {
		o.PairBudget = 2
	}
	if o.PerPairBudget == 0 {
		o.PerPairBudget = 8
	}
}

// Summary is a solved MaxEnt model of one relation. It is immutable after
// Build and safe for concurrent query answering.
type Summary struct {
	name        string
	sch         *schema.Schema
	n           float64
	set         *stats.Set
	sys         *polynomial.System
	constraints []solver.Constraint
	pairs       []stats.PairCorrelation
	report      solver.Report
	p           float64 // cached P = Eval(nil) of the solved system
	maxCombos   int
}

// Summary satisfies the shared estimator interface.
var _ core.Estimator = (*Summary)(nil)

// Build runs the full summarization pipeline over the relation:
// complete 1-dimensional statistics, correlation-ranked multi-dimensional
// statistic selection, polynomial compression, and the MaxEnt solve. The
// returned Summary answers queries without ever touching the relation
// again.
func Build(rel *relation.Relation, opts Options) (*Summary, error) {
	if rel.NumRows() == 0 {
		return nil, errors.New("summary: cannot summarize an empty relation")
	}
	if opts.Solver.N != 0 {
		return nil, errors.New("summary: Options.Solver.N is set from the relation; leave it zero")
	}
	opts.setDefaults()

	// Stage 1: statistics (Sec. 3.1, 4.3), from one scan of the rows.
	set, pairs, err := stats.Collect(rel, opts.PairBudget, opts.PerPairBudget, opts.Heuristic)
	if err != nil {
		return nil, fmt.Errorf("summary: statistic selection: %w", err)
	}

	// Stage 2: compressed polynomial (Sec. 4.1).
	comp, err := polynomial.NewCompressed(set.DomainSizes, set.MultiSpecs())
	if err != nil {
		return nil, fmt.Errorf("summary: polynomial compression: %w", err)
	}
	sys := polynomial.NewSystem(comp)

	// Stage 3: one expected-value constraint per statistic (Sec. 3.3).
	constraints := constraintsOf(set)

	// Stage 4: solve.
	sopts := opts.Solver
	sopts.N = float64(set.N)
	report, err := solver.Solve(sys, constraints, sopts)
	if err != nil {
		return nil, fmt.Errorf("summary: solve: %w", err)
	}

	// Evaluating once flushes the prefix-sum caches left dirty by the
	// solver's final variable updates, making subsequent concurrent
	// read-only evaluation safe, and pins the normalization constant.
	p := sys.Eval(nil)
	if degenerate(p) {
		return nil, fmt.Errorf("summary: solved polynomial evaluates to %g; model is degenerate", p)
	}

	return &Summary{
		name:        fmt.Sprintf("maxent[%s,Ba=%d,Bs=%d]", opts.Heuristic, opts.PairBudget, opts.PerPairBudget),
		sch:         rel.Schema(),
		n:           float64(set.N),
		set:         set,
		sys:         sys,
		constraints: constraints,
		pairs:       pairs,
		report:      report,
		p:           p,
		maxCombos:   maxGroupCombos,
	}, nil
}

// degenerate reports whether a polynomial's value P cannot normalize a
// model: it is not positive, or not finite. Build, Fold and decode share
// it, so every model that builds or refreshes also restores.
func degenerate(p float64) bool { return !(p > 0) || math.IsInf(p, 1) }

// Name identifies the summary configuration in reports.
func (s *Summary) Name() string { return s.name }

// Schema returns the schema the summary was built over.
func (s *Summary) Schema() *schema.Schema { return s.sch }

// constraintsOf lists one expected-value constraint per statistic of the
// set: 1D by attribute and value, then multi-dimensional by index — the
// order Build, Fold and a snapshot restore all give the solver.
func constraintsOf(set *stats.Set) []solver.Constraint {
	constraints := make([]solver.Constraint, 0, set.NumStatistics())
	for attr, col := range set.OneD {
		for value, target := range col {
			constraints = append(constraints, solver.OneDConstraint(attr, value, target))
		}
	}
	for j, st := range set.Multi {
		constraints = append(constraints, solver.MultiConstraint(j, st.Count))
	}
	return constraints
}

// N returns the cardinality of the summarized relation.
func (s *Summary) N() float64 { return s.n }

// Stats returns the statistic set Φ the model was fit to. Callers must
// treat it as read-only.
func (s *Summary) Stats() *stats.Set { return s.set }

// System returns the solved polynomial system. Callers must treat it as
// read-only; mutating variables invalidates the summary.
func (s *Summary) System() *polynomial.System { return s.sys }

// Constraints returns the solver constraints the model was fit to.
func (s *Summary) Constraints() []solver.Constraint { return s.constraints }

// ChosenPairs returns the attribute pairs that received multi-dimensional
// statistics, most correlated first.
func (s *Summary) ChosenPairs() []stats.PairCorrelation { return s.pairs }

// SolverReport returns the outcome of the MaxEnt solve. Duration is zero on
// a summary restored from a snapshot: wall-clock time is not persisted.
func (s *Summary) SolverReport() solver.Report { return s.report }

// ApproxBytes estimates the serialized footprint of the summary: one
// float64 per polynomial variable plus the structural description of each
// multi-dimensional statistic (two int32 attribute indexes and two int32
// range bounds per constrained attribute). The relation itself is not
// retained.
func (s *Summary) ApproxBytes() int64 {
	rep := s.sys.Poly().Size()
	bytes := int64(rep.OneDVariables)*8 + int64(rep.MultiVariables)*8
	for _, st := range s.set.Multi {
		bytes += int64(len(st.Attrs)) * 12 // attr index + range lo/hi
	}
	return bytes
}

// HeapBytes returns the heap the summary holds in memory, split into what
// is its own — the solved system with its caches, the statistics and the
// constraints — and the polynomial structure, which every resident model of
// the same structure shares (polynomial.Shared) and whose size is
// structure.HeapBytes(). ApproxBytes, the paper's summary size, counts
// neither.
func (s *Summary) HeapBytes() (own int64, structure *polynomial.Compressed) {
	own = int64(unsafe.Sizeof(*s)) + s.sys.HeapBytes() +
		polynomial.SliceBytes(s.constraints) + polynomial.SliceBytes(s.pairs) +
		polynomial.SliceBytes(s.set.OneD) + polynomial.SliceBytes(s.set.Multi) +
		polynomial.SliceBytes(s.set.DomainSizes)
	for _, col := range s.set.OneD {
		own += polynomial.SliceBytes(col)
	}
	for _, st := range s.set.Multi {
		own += polynomial.SliceBytes(st.Attrs) + polynomial.SliceBytes(st.Ranges)
	}
	return own, s.sys.Poly()
}

// EstimateCount answers COUNT(σ_π(I)) as n · P_π / P (Eq. 16). A nil
// predicate returns n exactly.
func (s *Summary) EstimateCount(pred *query.Predicate) (float64, error) {
	if pred == nil {
		return s.n, nil
	}
	if pred.NumAttrs() != s.sch.NumAttrs() {
		return 0, fmt.Errorf("summary: predicate over %d attributes, schema has %d", pred.NumAttrs(), s.sch.NumAttrs())
	}
	if pred.Unsatisfiable() {
		return 0, nil
	}
	return s.n * s.sys.Eval(pred) / s.p, nil
}

// EstimateGroupBy estimates COUNT(*) per combination of values of the
// grouping attributes among tuples satisfying pred. The values of all but
// the last grouping attribute are enumerated; the last attribute is one
// derivative-column pass per enumerated prefix (Eq. 8: the cell of value v
// is n · α_v · ∂P_π/∂α_v / P), so a k-attribute group-by costs Π_{i<k} N_i
// passes over the terms instead of Π_{i≤k} N_i masked evaluations. Unlike
// the scan-based estimators, the model has no notion of "observed" groups,
// so every combination with a positive estimate is returned — including the
// phantom groups the paper's rare-value experiment measures.
func (s *Summary) EstimateGroupBy(groupAttrs []int, pred *query.Predicate) ([]core.GroupEstimate, error) {
	k := len(groupAttrs)
	if k == 0 || k > 4 {
		return nil, fmt.Errorf("summary: group-by needs 1..4 attributes, got %d", k)
	}
	if pred != nil && pred.NumAttrs() != s.sch.NumAttrs() {
		return nil, fmt.Errorf("summary: predicate over %d attributes, schema has %d", pred.NumAttrs(), s.sch.NumAttrs())
	}
	combos := 1
	for i, a := range groupAttrs {
		if a < 0 || a >= s.sch.NumAttrs() {
			return nil, fmt.Errorf("summary: group-by attribute %d out of range [0,%d)", a, s.sch.NumAttrs())
		}
		for _, b := range groupAttrs[:i] {
			if a == b {
				return nil, fmt.Errorf("summary: duplicate group-by attribute %d", a)
			}
		}
		combos *= s.sch.Attr(a).Size()
		if combos > s.maxCombos {
			return nil, fmt.Errorf("summary: group-by space exceeds %d combinations", s.maxCombos)
		}
	}
	// The enumerated prefix is pinned on one private predicate; a
	// single-attribute group-by pins nothing and reads pred as given.
	q := pred
	if k > 1 {
		if pred == nil {
			q = query.NewPredicate(s.sch.NumAttrs())
		} else {
			q = pred.Clone()
		}
	}
	last := groupAttrs[k-1]
	col := make([]float64, s.sch.Attr(last).Size())
	vals := make([]int, k)
	var out []core.GroupEstimate
	var walk func(i int)
	walk = func(i int) {
		if i == k-1 {
			out = s.appendColumn(out, vals, last, q, col)
			return
		}
		a := groupAttrs[i]
		// Only descend into values compatible with the constraint the
		// predicate already places on the attribute.
		cons := q.Constraint(a)
		for v := 0; v < s.sch.Attr(a).Size(); v++ {
			if cons.Matches(v) {
				vals[i] = v
				q.WhereEq(a, v)
				walk(i + 1)
			}
		}
		q.Where(a, cons)
	}
	walk(0)
	core.SortGroupEstimates(out)
	return out, nil
}

// appendColumn appends the positive cells of one group-by column: prefix
// holds the enumerated values of the outer grouping attributes (its last
// slot is scratch), q pins them, and col is N_attr scratch floats. The
// cells' Values are carved out of one slab, each capped so that a caller's
// append cannot spill into its neighbour.
func (s *Summary) appendColumn(out []core.GroupEstimate, prefix []int, attr int, q *query.Predicate, col []float64) []core.GroupEstimate {
	s.sys.DerivColumn(attr, q, col)
	positive := 0
	for v, d := range col {
		col[v] = s.n * (s.sys.OneD(attr, v) * d) / s.p
		if col[v] > 0 {
			positive++
		}
	}
	k := len(prefix)
	slab := make([]int, positive*k)
	out = slices.Grow(out, positive)
	for v, est := range col {
		if est > 0 {
			prefix[k-1] = v
			cell := slab[:k:k]
			slab = slab[k:]
			copy(cell, prefix)
			out = append(out, core.GroupEstimate{Values: cell, Estimate: est})
		}
	}
	return out
}
