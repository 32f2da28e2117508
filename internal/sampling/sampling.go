// Package sampling implements the approximate-query-processing baselines the
// paper compares EntropyDB against (Sec. 6): uniform random samples and
// stratified samples over a chosen attribute pair, both with Horvitz-
// Thompson style per-stratum scaling of counts. Samples satisfy
// core.Estimator, so the experiment harness drives them through the same
// code path as the MaxEnt summary and the exact engine.
//
// All randomness is injected: constructors take a *rand.Rand and fall back
// to a fixed DefaultSeed when given nil, so experiments are reproducible
// by default.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// DefaultSeed seeds the fallback random source used when a constructor is
// given a nil *rand.Rand. Experiments that want different draws must pass
// their own source; nothing in this package reads the wall clock.
const DefaultSeed int64 = 1

// defaultRNG returns rng, or a freshly seeded deterministic source when
// rng is nil.
func defaultRNG(rng *rand.Rand) *rand.Rand {
	if rng != nil {
		return rng
	}
	return rand.New(rand.NewSource(DefaultSeed))
}

// Sample is a weighted subset of a relation usable for approximate counting
// queries. Each retained row carries the inverse of its inclusion
// probability as its weight. Sample implements core.Estimator.
type Sample struct {
	name    string
	rel     *relation.Relation
	weights []float64
}

// Sample satisfies the shared estimator interface.
var _ core.Estimator = (*Sample)(nil)

// Name returns a human-readable description of the sample (used in reports).
func (s *Sample) Name() string { return s.name }

// NumRows returns the number of retained rows.
func (s *Sample) NumRows() int { return s.rel.NumRows() }

// Relation returns the retained rows as a relation. Callers must treat it as
// read-only.
func (s *Sample) Relation() *relation.Relation { return s.rel }

// ApproxBytes estimates the in-memory footprint of the sample (encoded rows
// plus one float64 weight per row).
func (s *Sample) ApproxBytes() int64 {
	return s.rel.ApproxBytes() + int64(len(s.weights))*8
}

// Count estimates COUNT(*) for the predicate as the weighted count of
// matching sampled rows.
func (s *Sample) Count(pred *query.Predicate) float64 {
	f := relation.NewFilter(s.rel.Schema(), pred)
	total := 0.0
	for start, cols := range s.rel.Parts() {
		for i := range cols[0] {
			if f.Admits(cols, i) {
				total += s.weights[start+i]
			}
		}
	}
	return total
}

// EstimateCount implements core.Estimator.
func (s *Sample) EstimateCount(pred *query.Predicate) (float64, error) {
	return s.Count(pred), nil
}

// GroupBy estimates COUNT(*) per combination of values of the grouping
// attributes among rows satisfying pred. Only groups with at least one
// sampled row are returned.
func (s *Sample) GroupBy(groupAttrs []int, pred *query.Predicate) []core.GroupEstimate {
	if len(groupAttrs) == 0 || len(groupAttrs) > 4 {
		panic(fmt.Sprintf("sampling: group-by needs 1..4 attributes, got %d", len(groupAttrs)))
	}
	f := relation.NewFilter(s.rel.Schema(), pred)
	acc := make(map[relation.GroupKey]float64)
	vals := make([]int, len(groupAttrs))
	for start, cols := range s.rel.Parts() {
		for i := range cols[0] {
			if !f.Admits(cols, i) {
				continue
			}
			for k, a := range groupAttrs {
				vals[k] = int(cols[a][i])
			}
			acc[relation.MakeGroupKey(vals)] += s.weights[start+i]
		}
	}
	out := make([]core.GroupEstimate, 0, len(acc))
	for key, est := range acc {
		out = append(out, core.GroupEstimate{Values: key.Values(len(groupAttrs)), Estimate: est})
	}
	core.SortGroupEstimates(out)
	return out
}

// EstimateGroupBy implements core.Estimator.
func (s *Sample) EstimateGroupBy(groupAttrs []int, pred *query.Predicate) ([]core.GroupEstimate, error) {
	return s.GroupBy(groupAttrs, pred), nil
}

// Uniform draws a uniform random sample with the given sampling rate. Every
// retained row gets weight 1/rate. A nil rng uses a deterministic source
// seeded with DefaultSeed.
func Uniform(rel *relation.Relation, rate float64, rng *rand.Rand) (*Sample, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sampling: rate must be in (0,1], got %g", rate)
	}
	rng = defaultRNG(rng)
	rows := make([]int, 0, int(rate*float64(rel.NumRows()))+16)
	for i := 0; i < rel.NumRows(); i++ {
		if rng.Float64() < rate {
			rows = append(rows, i)
		}
	}
	sub := rel.Select(rows)
	weights := make([]float64, sub.NumRows())
	w := 1.0 / rate
	for i := range weights {
		weights[i] = w
	}
	return &Sample{name: fmt.Sprintf("Uniform(%.2f%%)", rate*100), rel: sub, weights: weights}, nil
}

// Stratified draws a stratified sample: rows are grouped by the values
// of the strata attributes; each stratum contributes ceil(rate·|stratum|)
// rows but never fewer than minPerStratum (or the whole stratum when it is
// smaller). Each retained row is weighted by |stratum| / |sampled stratum|.
// A nil rng uses a deterministic source seeded with DefaultSeed.
//
// This is the standard stratification the paper compares against: the
// stratified samples are built on a specific attribute pair and guarantee
// representation of rare strata.
func Stratified(rel *relation.Relation, strataAttrs []int, rate float64, minPerStratum int, rng *rand.Rand) (*Sample, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sampling: rate must be in (0,1], got %g", rate)
	}
	if len(strataAttrs) == 0 || len(strataAttrs) > 4 {
		return nil, fmt.Errorf("sampling: stratification needs 1..4 attributes, got %d", len(strataAttrs))
	}
	if minPerStratum < 1 {
		minPerStratum = 1
	}
	rng = defaultRNG(rng)
	// Bucket row indexes per stratum.
	strata := make(map[relation.GroupKey][]int)
	vals := make([]int, len(strataAttrs))
	for start, cols := range rel.Parts() {
		for i := range cols[0] {
			for k, a := range strataAttrs {
				vals[k] = int(cols[a][i])
			}
			key := relation.MakeGroupKey(vals)
			strata[key] = append(strata[key], start+i)
		}
	}
	// Deterministic stratum order for reproducibility.
	keys := make([]relation.GroupKey, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		for p := 0; p < len(keys[i]); p++ {
			if keys[i][p] != keys[j][p] {
				return keys[i][p] < keys[j][p]
			}
		}
		return false
	})

	var rows []int
	var weights []float64
	for _, key := range keys {
		members := strata[key]
		want := int(rate*float64(len(members)) + 0.5)
		if want < minPerStratum {
			want = minPerStratum
		}
		if want > len(members) {
			want = len(members)
		}
		// Partial Fisher-Yates to pick `want` members without replacement.
		picked := append([]int(nil), members...)
		for i := 0; i < want; i++ {
			j := i + rng.Intn(len(picked)-i)
			picked[i], picked[j] = picked[j], picked[i]
		}
		w := float64(len(members)) / float64(want)
		for i := 0; i < want; i++ {
			rows = append(rows, picked[i])
			weights = append(weights, w)
		}
	}
	sub := rel.Select(rows)
	return &Sample{
		name:    fmt.Sprintf("Stratified(%v, %.2f%%)", strataAttrs, rate*100),
		rel:     sub,
		weights: weights,
	}, nil
}
