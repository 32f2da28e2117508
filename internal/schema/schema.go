// Package schema models relational schemas with discrete, ordered active
// domains, as required by the EntropyDB MaxEnt summarization model
// (Sec. 3.1 of the paper). Continuous attributes are bucketized into
// equi-width bins; categorical attributes enumerate their labels.
package schema

import (
	"fmt"
	"strings"
)

// Kind describes how an attribute's active domain was constructed.
type Kind int

const (
	// Categorical attributes enumerate an explicit, ordered label set.
	Categorical Kind = iota
	// Binned attributes bucketize a continuous range into equi-width bins.
	Binned
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Binned:
		return "binned"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// maxDomain is the largest active domain an attribute may have: the
// relation stores every encoded value in two bytes.
const maxDomain = 1 << 16

// maxAttrs is the most attributes a schema may have: the summary's
// polynomial keeps each term's attribute set in one 64-bit mask.
const maxAttrs = 64

// Attribute is a single column with a finite, ordered active domain.
// Domain values are addressed by their index in [0, Size()).
type Attribute struct {
	name   string
	kind   Kind
	labels []string // categorical labels, index-aligned
	lo, hi float64  // binned: overall value range [lo, hi)
	bins   int      // binned: number of equi-width buckets
	index  map[string]int
}

// NewCategorical creates a categorical attribute with the given ordered
// labels. Labels must be unique, and there may be at most 65536 of them.
func NewCategorical(name string, labels []string) (Attribute, error) {
	if name == "" {
		return Attribute{}, fmt.Errorf("schema: attribute name must not be empty")
	}
	if len(labels) == 0 {
		return Attribute{}, fmt.Errorf("schema: attribute %q needs at least one label", name)
	}
	if len(labels) > maxDomain {
		return Attribute{}, fmt.Errorf("schema: attribute %q has %d labels, more than the %d values a domain may hold", name, len(labels), maxDomain)
	}
	idx := make(map[string]int, len(labels))
	for i, l := range labels {
		if _, dup := idx[l]; dup {
			return Attribute{}, fmt.Errorf("schema: attribute %q has duplicate label %q", name, l)
		}
		idx[l] = i
	}
	return Attribute{
		name:   name,
		kind:   Categorical,
		labels: append([]string(nil), labels...),
		index:  idx,
	}, nil
}

// NewBinned creates a continuous attribute bucketized into bins equi-width
// buckets covering [lo, hi); bins may be at most 65536.
func NewBinned(name string, lo, hi float64, bins int) (Attribute, error) {
	if name == "" {
		return Attribute{}, fmt.Errorf("schema: attribute name must not be empty")
	}
	if bins <= 0 {
		return Attribute{}, fmt.Errorf("schema: attribute %q needs a positive bin count, got %d", name, bins)
	}
	if bins > maxDomain {
		return Attribute{}, fmt.Errorf("schema: attribute %q has %d bins, more than the %d values a domain may hold", name, bins, maxDomain)
	}
	if !(hi > lo) {
		return Attribute{}, fmt.Errorf("schema: attribute %q needs hi > lo, got [%g, %g)", name, lo, hi)
	}
	return Attribute{name: name, kind: Binned, lo: lo, hi: hi, bins: bins}, nil
}

// MustCategorical is like NewCategorical but panics on error. It is intended
// for statically-known schemas in tests and generators.
func MustCategorical(name string, labels []string) Attribute {
	a, err := NewCategorical(name, labels)
	if err != nil {
		panic(err)
	}
	return a
}

// MustBinned is like NewBinned but panics on error.
func MustBinned(name string, lo, hi float64, bins int) Attribute {
	a, err := NewBinned(name, lo, hi, bins)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the attribute name.
func (a Attribute) Name() string { return a.name }

// Kind returns how the active domain was constructed.
func (a Attribute) Kind() Kind { return a.kind }

// Size returns the number of distinct active-domain values N_i.
func (a Attribute) Size() int {
	if a.kind == Categorical {
		return len(a.labels)
	}
	return a.bins
}

// Bounds returns the [lo, hi) range of a binned attribute. For categorical
// attributes it returns (0, 0).
func (a Attribute) Bounds() (lo, hi float64) {
	if a.kind != Binned {
		return 0, 0
	}
	return a.lo, a.hi
}

// Label returns a human-readable label for domain value v.
func (a Attribute) Label(v int) string {
	if v < 0 || v >= a.Size() {
		return fmt.Sprintf("<out-of-domain %d>", v)
	}
	if a.kind == Categorical {
		return a.labels[v]
	}
	w := (a.hi - a.lo) / float64(a.bins)
	return fmt.Sprintf("[%g, %g)", a.lo+float64(v)*w, a.lo+float64(v+1)*w)
}

// EncodeLabel maps a categorical label to its domain index.
func (a Attribute) EncodeLabel(label string) (int, error) {
	if a.kind != Categorical {
		return 0, fmt.Errorf("schema: attribute %q is not categorical", a.name)
	}
	v, ok := a.index[label]
	if !ok {
		return 0, fmt.Errorf("schema: attribute %q has no label %q", a.name, label)
	}
	return v, nil
}

// Bin maps a raw continuous value to its equi-width bucket index, clamping
// values outside [lo, hi) to the first or last bucket.
func (a Attribute) Bin(x float64) (int, error) {
	if a.kind != Binned {
		return 0, fmt.Errorf("schema: attribute %q is not binned", a.name)
	}
	if x < a.lo {
		return 0, nil
	}
	if x >= a.hi {
		return a.bins - 1, nil
	}
	w := (a.hi - a.lo) / float64(a.bins)
	v := int((x - a.lo) / w)
	if v >= a.bins {
		v = a.bins - 1
	}
	return v, nil
}

// Schema is an ordered list of attributes describing a single relation
// R(A_1, ..., A_m).
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// New builds a schema from the given attributes. Attribute names must be
// unique, and there may be at most 64 attributes.
func New(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: a schema needs at least one attribute")
	}
	if len(attrs) > maxAttrs {
		return nil, fmt.Errorf("schema: %d attributes, more than the %d a schema may hold", len(attrs), maxAttrs)
	}
	byName := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a.Size() <= 0 {
			return nil, fmt.Errorf("schema: attribute %d (%q) has an empty domain", i, a.Name())
		}
		if _, dup := byName[a.Name()]; dup {
			return nil, fmt.Errorf("schema: duplicate attribute name %q", a.Name())
		}
		byName[a.Name()] = i
	}
	return &Schema{attrs: append([]Attribute(nil), attrs...), byName: byName}, nil
}

// MustNew is like New but panics on error.
func MustNew(attrs ...Attribute) *Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns m, the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of all attributes in order.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("schema: no attribute named %q", name)
	}
	return i, nil
}

// DomainSizes returns [N_1, ..., N_m].
func (s *Schema) DomainSizes() []int {
	out := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Size()
	}
	return out
}

// String renders the schema as "R(a:N1, b:N2, ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		parts[i] = fmt.Sprintf("%s:%d", a.Name(), a.Size())
	}
	return "R(" + strings.Join(parts, ", ") + ")"
}
