package polynomial

import (
	"fmt"

	"repro/internal/query"
)

// Naive is the brute-force sum-of-products form of the MaxEnt polynomial: it
// enumerates every tuple of the cross-product tuple space and sums the
// corresponding monomials (Eq. (5) of the paper). It exists only as a
// correctness oracle for the compressed representation and is restricted to
// small domains.
type Naive struct {
	sizes []int
	specs []MultiStatSpec
}

// maxNaiveTuples bounds the tuple space a Naive polynomial will enumerate.
const maxNaiveTuples = 1 << 22

// NewNaive creates a Naive polynomial over the given domain sizes and
// multi-dimensional statistics.
func NewNaive(domainSizes []int, specs []MultiStatSpec) (*Naive, error) {
	sizes := append([]int(nil), domainSizes...)
	d := int64(1)
	for i, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("polynomial: attribute %d has non-positive domain size %d", i, n)
		}
		d *= int64(n)
		if d > maxNaiveTuples {
			return nil, fmt.Errorf("polynomial: tuple space too large for the naive polynomial (> %d)", maxNaiveTuples)
		}
	}
	for i, s := range specs {
		if err := s.Validate(sizes); err != nil {
			return nil, fmt.Errorf("statistic %d: %w", i, err)
		}
	}
	return &Naive{sizes: sizes, specs: append([]MultiStatSpec(nil), specs...)}, nil
}

// Eval computes the masked polynomial by explicit enumeration, reading the
// variable values from the System (which must be built over the same domain
// sizes and statistics).
func (nv *Naive) Eval(sys *System, pred *query.Predicate) float64 {
	total := 0.0
	tuple := make([]int, len(nv.sizes))
	nv.enumerate(tuple, 0, func(t []int) {
		if pred != nil && !pred.Matches(t) {
			return
		}
		total += sys.TupleWeight(t)
	})
	return total
}

// Deriv computes the partial derivative of the masked polynomial with
// respect to ref by explicit enumeration.
func (nv *Naive) Deriv(sys *System, ref VarRef, pred *query.Predicate) float64 {
	total := 0.0
	tuple := make([]int, len(nv.sizes))
	nv.enumerate(tuple, 0, func(t []int) {
		if pred != nil && !pred.Matches(t) {
			return
		}
		switch ref.Kind {
		case OneD:
			if t[ref.Attr] != ref.Value {
				return
			}
			// Monomial divided by α_{attr,value}: product of the other
			// factors.
			w := 1.0
			for a, v := range t {
				if a == ref.Attr {
					continue
				}
				w *= sys.OneD(a, v)
			}
			for j, spec := range nv.specs {
				if specMatches(spec, t) {
					w *= sys.MultiVar(j)
				}
			}
			total += w
		case Multi:
			spec := nv.specs[ref.Stat]
			if !specMatches(spec, t) {
				return
			}
			w := 1.0
			for a, v := range t {
				w *= sys.OneD(a, v)
			}
			for j, sp := range nv.specs {
				if j == ref.Stat {
					continue
				}
				if specMatches(sp, t) {
					w *= sys.MultiVar(j)
				}
			}
			total += w
		}
	})
	return total
}

func (nv *Naive) enumerate(tuple []int, attr int, visit func([]int)) {
	if attr == len(nv.sizes) {
		visit(tuple)
		return
	}
	for v := 0; v < nv.sizes[attr]; v++ {
		tuple[attr] = v
		nv.enumerate(tuple, attr+1, visit)
	}
}
