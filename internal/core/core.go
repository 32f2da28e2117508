// Package core defines the estimator abstraction every query-answering
// strategy of the repository implements: the exact ground-truth engine,
// the sampling baselines, and the MaxEnt summary. Putting all of them
// behind one interface lets the experiment harness drive any mix of
// strategies through identical code paths, mirroring the evaluation
// setup of the paper (Sec. 6).
package core

import (
	"slices"

	"repro/internal/query"
)

// Estimator answers the linear counting queries of Sec. 3.1 — COUNT(*)
// under a conjunctive predicate, and COUNT(*) GROUP BY a small attribute
// list — from whatever state the strategy keeps (full relation, weighted
// sample, or solved MaxEnt polynomial).
//
// Implementations must be safe for concurrent read-only use: the
// experiment harness shares one Estimator across many goroutines.
type Estimator interface {
	// Name identifies the strategy in reports (e.g. "exact",
	// "Uniform(1.00%)", "maxent[LARGE]").
	Name() string
	// EstimateCount returns the estimated COUNT(*) of tuples satisfying
	// pred. A nil predicate means the full relation cardinality.
	EstimateCount(pred *query.Predicate) (float64, error)
	// EstimateGroupBy returns the estimated COUNT(*) per combination of
	// values of the grouping attributes among tuples satisfying pred
	// (pred may be nil). At most four grouping attributes are supported.
	// Groups are ordered by descending estimate with deterministic
	// tie-breaking (see SortGroupEstimates).
	EstimateGroupBy(groupAttrs []int, pred *query.Predicate) ([]GroupEstimate, error)
	// ApproxBytes estimates the in-memory footprint of the state the
	// strategy answers from, for summary-vs-data size reporting.
	ApproxBytes() int64
}

// GroupEstimate is one row of an approximate (or exact) group-by result:
// the query package's GroupRow, so an estimator's answer is served and
// cached as-is.
type GroupEstimate = query.GroupRow

// GroupKey identifies one group in a group-by result: the packed tuple of
// encoded values of the grouping attributes, in the order they were given.
// It is the single key layout shared by the exact engine and the sampling
// baselines, so the four-attribute limit and the -1 unused-slot sentinel
// live in one place.
type GroupKey [4]int32

// MakeGroupKey packs up to four encoded values into a GroupKey; unused
// slots hold -1, which no encoded domain value can collide with.
func MakeGroupKey(values []int) GroupKey {
	var k GroupKey
	for i := range k {
		k[i] = -1
	}
	for i, v := range values {
		if i >= len(k) {
			panic("core: group-by supports at most 4 attributes")
		}
		k[i] = int32(v)
	}
	return k
}

// Values unpacks the first n values of the key.
func (k GroupKey) Values(n int) []int {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(k[i])
	}
	return out
}

// SortGroupEstimates orders groups descending by estimate, then
// lexicographically by values, the deterministic order every Estimator
// returns. A group's Values are distinct from every other group's, so the
// order is total and any sort gives the same answer.
func SortGroupEstimates(groups []GroupEstimate) {
	slices.SortFunc(groups, func(a, b GroupEstimate) int {
		if a.Estimate != b.Estimate {
			if a.Estimate > b.Estimate {
				return -1
			}
			return 1
		}
		return slices.Compare(a.Values, b.Values)
	})
}
