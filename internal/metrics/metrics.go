// Package metrics implements the quality measures used throughout the
// paper's evaluation (Sec. 6.2): the symmetric relative error
// |true − est| / (true + est), precision/recall over light-hitter versus
// nonexistent values, and the F-measure, plus small aggregation helpers.
package metrics

import (
	"math"
	"sort"
)

// RelativeError returns |truth − est| / (truth + est), the error measure of
// Sec. 6.2. When both values are zero the error is 0; when exactly one is
// zero the error is 1.
func RelativeError(truth, est float64) float64 {
	if truth == 0 && est == 0 {
		return 0
	}
	den := truth + est
	if den == 0 {
		// Only reachable with negative estimates; treat as maximal error.
		return 1
	}
	return math.Abs(truth-est) / den
}

// FMeasure returns 2·p·r/(p+r), or 0 when both precision and recall are 0.
func FMeasure(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// nearest-rank interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// ErrorSummary aggregates a set of per-query errors into the summary
// statistics the evaluation tables report.
type ErrorSummary struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

// Summarize computes the ErrorSummary of xs (zero-valued for an empty
// slice).
func Summarize(xs []float64) ErrorSummary {
	s := ErrorSummary{Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.Median = Median(xs)
	s.P95 = Percentile(xs, 95)
	for _, x := range xs {
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// RareValueOutcome accumulates the confusion counts of the paper's
// rare-versus-nonexistent experiment: estimates over light hitters (true
// count > 0) and null values (true count = 0) are rounded and classified as
// "predicted existing" when the rounded estimate is positive.
type RareValueOutcome struct {
	// LightPredictedPositive counts light hitters with a positive rounded
	// estimate (true positives).
	LightPredictedPositive int
	// LightTotal counts all light hitters scored.
	LightTotal int
	// NullPredictedPositive counts nonexistent values with a positive
	// rounded estimate (false positives, the MaxEnt "phantom tuples").
	NullPredictedPositive int
	// NullTotal counts all nonexistent values scored.
	NullTotal int
}

// AddLightHitter records the estimate for a value known to exist (rare).
func (o *RareValueOutcome) AddLightHitter(estimate float64) {
	o.LightTotal++
	if math.Round(estimate) > 0 {
		o.LightPredictedPositive++
	}
}

// AddNull records the estimate for a value known not to exist.
func (o *RareValueOutcome) AddNull(estimate float64) {
	o.NullTotal++
	if math.Round(estimate) > 0 {
		o.NullPredictedPositive++
	}
}

// Precision returns |{est>0 : light}| / |{est>0 : light ∪ null}| as defined
// in Sec. 6.2 (1 when nothing was predicted positive).
func (o *RareValueOutcome) Precision() float64 {
	denom := o.LightPredictedPositive + o.NullPredictedPositive
	if denom == 0 {
		return 1
	}
	return float64(o.LightPredictedPositive) / float64(denom)
}

// Recall returns |{est>0 : light}| / |light|.
func (o *RareValueOutcome) Recall() float64 {
	if o.LightTotal == 0 {
		return 0
	}
	return float64(o.LightPredictedPositive) / float64(o.LightTotal)
}

// F returns the F-measure of the outcome.
func (o *RareValueOutcome) F() float64 {
	return FMeasure(o.Precision(), o.Recall())
}
