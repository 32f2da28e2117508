// Package exact is the ground-truth query engine: it answers the counting
// and group-by queries of the evaluation by scanning the full relation. The
// experiment harness scores every approximate estimator (the MaxEnt summary
// and the sampling baselines) against this engine; the engine itself also
// satisfies core.Estimator, so it can be driven through the same harness
// code path to report its own latency and footprint.
package exact

import (
	"slices"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Engine answers queries exactly against a full relation. It implements
// core.Estimator with zero error.
type Engine struct {
	rel *relation.Relation
}

// Engine satisfies the shared estimator interface.
var _ core.Estimator = (*Engine)(nil)

// New creates an exact engine over the relation.
func New(rel *relation.Relation) *Engine {
	return &Engine{rel: rel}
}

// Relation returns the underlying relation.
func (e *Engine) Relation() *relation.Relation { return e.rel }

// Name identifies the engine in reports.
func (e *Engine) Name() string { return "exact" }

// ApproxBytes reports the footprint of the full encoded relation, the
// state the engine answers from.
func (e *Engine) ApproxBytes() int64 { return e.rel.ApproxBytes() }

// Count returns the exact COUNT(*) of rows satisfying the predicate.
func (e *Engine) Count(pred *query.Predicate) float64 {
	return float64(e.rel.Count(pred))
}

// EstimateCount implements core.Estimator; the "estimate" is exact.
func (e *Engine) EstimateCount(pred *query.Predicate) (float64, error) {
	return e.Count(pred), nil
}

// GroupBy returns the exact COUNT(*) per combination of values of the
// grouping attributes among rows satisfying pred (pred may be nil). Only
// observed groups are returned, in descending count order with
// deterministic tie-breaking. The estimates are built straight from the
// groups the relation counts (relation.Groups), with no map between.
func (e *Engine) GroupBy(groupAttrs []int, pred *query.Predicate) []core.GroupEstimate {
	out := []core.GroupEstimate{} // no group is an empty list, not nil
	for vals, c := range e.rel.Groups(groupAttrs, pred) {
		out = append(out, core.GroupEstimate{Values: slices.Clone(vals), Estimate: float64(c)})
	}
	core.SortGroupEstimates(out)
	return out
}

// EstimateGroupBy implements core.Estimator.
func (e *Engine) EstimateGroupBy(groupAttrs []int, pred *query.Predicate) ([]core.GroupEstimate, error) {
	return e.GroupBy(groupAttrs, pred), nil
}
