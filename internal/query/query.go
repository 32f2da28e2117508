// Package query models the linear (counting) queries supported by the
// EntropyDB summary: conjunctions of per-attribute predicates over the
// encoded active domain (Sec. 3.1 and Eq. (16) of the paper). Attribute
// values are addressed by their domain index, so the package is independent
// of the concrete schema.
package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Range is an inclusive range [Lo, Hi] of encoded domain values.
type Range struct {
	Lo, Hi int
}

// NewRange returns the inclusive range [lo, hi].
func NewRange(lo, hi int) Range { return Range{Lo: lo, Hi: hi} }

// Point returns the single-value range [v, v].
func Point(v int) Range { return Range{Lo: v, Hi: v} }

// Empty reports whether the range contains no values.
func (r Range) Empty() bool { return r.Hi < r.Lo }

// Len returns the number of values in the range (0 if empty).
func (r Range) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v int) bool { return v >= r.Lo && v <= r.Hi }

// Intersect returns the intersection of two ranges; the result may be empty.
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Range{Lo: lo, Hi: hi}
}

// Overlaps reports whether the two ranges share at least one value.
func (r Range) Overlaps(o Range) bool { return !r.Intersect(o).Empty() }

// String renders the range as "[lo,hi]".
func (r Range) String() string {
	if r.Empty() {
		return "[]"
	}
	if r.Lo == r.Hi {
		return fmt.Sprintf("[%d]", r.Lo)
	}
	return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi)
}

// ConstraintKind distinguishes the supported per-attribute predicate shapes.
type ConstraintKind int

const (
	// Any places no restriction on the attribute (ρ_i ≡ true).
	Any ConstraintKind = iota
	// InRange restricts the attribute to an inclusive value range.
	InRange
	// InSet restricts the attribute to an explicit set of values.
	InSet
)

// Constraint is the predicate ρ_i over a single attribute.
type Constraint struct {
	Kind   ConstraintKind
	Range  Range
	Values []int // sorted, for InSet
}

// AnyValue returns the unconstrained predicate.
func AnyValue() Constraint { return Constraint{Kind: Any} }

// ValueIn returns a range constraint.
func ValueIn(r Range) Constraint { return Constraint{Kind: InRange, Range: r} }

// ValueEq returns a point constraint A_i = v.
func ValueEq(v int) Constraint { return Constraint{Kind: InRange, Range: Point(v)} }

// ValueSet returns a set constraint A_i ∈ values. The value slice is copied
// and sorted.
func ValueSet(values []int) Constraint {
	return ownedSet(append([]int(nil), values...))
}

// ownedSet is ValueSet over a slice the caller hands over: sorted and
// deduplicated in place.
func ownedSet(vs []int) Constraint {
	if !sort.IntsAreSorted(vs) {
		sort.Ints(vs)
	}
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return Constraint{Kind: InSet, Values: out}
}

// checkRange and checkSet are the admission rules both wires share: domain
// values are non-negative ints, ranges run lo <= hi, sets are non-empty. The
// JSON and the binary decoder call them, so the two reject the same inputs
// in the same words, and the binary encoder calls them so it never writes a
// frame its decoder refuses.
func checkRange(lo, hi int) error {
	if lo < 0 {
		return fmt.Errorf("range lo %d must be non-negative", lo)
	}
	if hi < lo {
		return fmt.Errorf("empty range [%d,%d]", lo, hi)
	}
	return nil
}

func checkSet(values []int) error {
	if len(values) == 0 {
		return errors.New("set constraint needs a non-empty value list")
	}
	for _, v := range values {
		if v < 0 {
			return fmt.Errorf("set value %d must be non-negative", v)
		}
	}
	return nil
}

// Matches reports whether domain value v satisfies the constraint.
func (c Constraint) Matches(v int) bool {
	switch c.Kind {
	case Any:
		return true
	case InRange:
		return c.Range.Contains(v)
	case InSet:
		i := sort.SearchInts(c.Values, v)
		return i < len(c.Values) && c.Values[i] == v
	default:
		return false
	}
}

// IsAny reports whether the constraint places no restriction.
func (c Constraint) IsAny() bool { return c.Kind == Any }

// Empty reports whether the constraint can never be satisfied.
func (c Constraint) Empty() bool {
	switch c.Kind {
	case InRange:
		return c.Range.Empty()
	case InSet:
		return len(c.Values) == 0
	default:
		return false
	}
}

// String renders the constraint.
func (c Constraint) String() string {
	switch c.Kind {
	case Any:
		return "*"
	case InRange:
		return c.Range.String()
	case InSet:
		parts := make([]string, len(c.Values))
		for i, v := range c.Values {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return "?"
	}
}

// Predicate is a conjunction π = ρ_1 ∧ ... ∧ ρ_m of per-attribute
// constraints, Eq. (16) of the paper. Attributes not mentioned are
// unconstrained.
//
// The constraints live in one slice kept sorted by attribute and free of Any
// entries — the order both wires, the canonical key and every evaluator read
// them in — so a predicate costs memory in proportion to what it constrains,
// never to its arity.
type Predicate struct {
	numAttrs int
	cons     []attrConstraint
}

// attrConstraint is one constrained attribute of a predicate.
type attrConstraint struct {
	attr int
	c    Constraint
}

// NewPredicate creates an empty (always-true) predicate over a relation with
// numAttrs attributes.
func NewPredicate(numAttrs int) *Predicate {
	return &Predicate{numAttrs: numAttrs}
}

// NumAttrs returns the arity of the underlying relation.
func (p *Predicate) NumAttrs() int { return p.numAttrs }

// find returns the position of attr in p.cons — where it is, or where it
// would be inserted — and whether it is there.
func (p *Predicate) find(attr int) (int, bool) {
	i := len(p.cons)
	for i > 0 && p.cons[i-1].attr >= attr {
		i--
	}
	return i, i < len(p.cons) && p.cons[i].attr == attr
}

// Where adds (replaces) the constraint on attribute attr and returns the
// predicate for chaining.
func (p *Predicate) Where(attr int, c Constraint) *Predicate {
	if attr < 0 || attr >= p.numAttrs {
		panic(fmt.Sprintf("query: attribute index %d out of range [0,%d)", attr, p.numAttrs))
	}
	i, found := p.find(attr)
	switch {
	case found && c.IsAny():
		p.cons = slices.Delete(p.cons, i, i+1)
	case found:
		p.cons[i].c = c
	case !c.IsAny():
		p.cons = slices.Insert(p.cons, i, attrConstraint{attr: attr, c: c})
	}
	return p
}

// WhereEq constrains attribute attr to the single value v.
func (p *Predicate) WhereEq(attr, v int) *Predicate { return p.Where(attr, ValueEq(v)) }

// WhereRange constrains attribute attr to [lo, hi].
func (p *Predicate) WhereRange(attr, lo, hi int) *Predicate {
	return p.Where(attr, ValueIn(NewRange(lo, hi)))
}

// WhereIn constrains attribute attr to the given value set.
func (p *Predicate) WhereIn(attr int, values ...int) *Predicate {
	return p.Where(attr, ValueSet(values))
}

// Constraint returns the constraint on attribute attr (Any when
// unconstrained).
func (p *Predicate) Constraint(attr int) Constraint {
	if i, found := p.find(attr); found {
		return p.cons[i].c
	}
	return AnyValue()
}

// ConstrainedAttrs returns the sorted indexes of attributes carrying a
// non-trivial constraint.
func (p *Predicate) ConstrainedAttrs() []int {
	out := make([]int, len(p.cons))
	for i, ac := range p.cons {
		out[i] = ac.attr
	}
	return out
}

// Matches reports whether the encoded row satisfies the conjunction.
func (p *Predicate) Matches(row []int) bool {
	for _, ac := range p.cons {
		if !ac.c.Matches(row[ac.attr]) {
			return false
		}
	}
	return true
}

// Unsatisfiable reports whether some constraint is empty, i.e. the predicate
// can never match any tuple.
func (p *Predicate) Unsatisfiable() bool {
	for _, ac := range p.cons {
		if ac.c.Empty() {
			return true
		}
	}
	return false
}

// Clone returns a copy of the predicate that shares no constraint storage
// with it (set value lists are immutable and stay shared).
func (p *Predicate) Clone() *Predicate {
	return &Predicate{numAttrs: p.numAttrs, cons: append([]attrConstraint(nil), p.cons...)}
}

// String renders the predicate as "A0∈[..] ∧ A3∈{..}".
func (p *Predicate) String() string {
	if len(p.cons) == 0 {
		return "true"
	}
	parts := make([]string, len(p.cons))
	for i, ac := range p.cons {
		parts[i] = fmt.Sprintf("A%d∈%s", ac.attr, ac.c)
	}
	return strings.Join(parts, " ∧ ")
}

// Selectivity returns the fraction of the full cross-product tuple space
// that satisfies the predicate, given the per-attribute domain sizes. It is
// used by heuristics and tests, not by query answering.
func (p *Predicate) Selectivity(domainSizes []int) float64 {
	sel := 1.0
	for _, ac := range p.cons {
		c, n := ac.c, domainSizes[ac.attr]
		if n == 0 {
			return 0
		}
		var count int
		switch c.Kind {
		case InRange:
			r := c.Range.Intersect(NewRange(0, n-1))
			count = r.Len()
		case InSet:
			for _, v := range c.Values {
				if v >= 0 && v < n {
					count++
				}
			}
		default:
			count = n
		}
		sel *= float64(count) / float64(n)
	}
	return sel
}
