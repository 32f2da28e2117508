// JSON wire format for predicates, used by the summaryd HTTP service and
// any other out-of-process client. The encoding is strict on input —
// unknown constraint kinds, out-of-range attributes, duplicate attributes,
// inverted ranges, and negative domain values are rejected with descriptive
// errors — so a malformed request never turns into a silently-wrong query.
//
// A predicate marshals as
//
//	{"num_attrs": 4,
//	 "where": [{"attr": 0, "kind": "eq", "value": 2},
//	           {"attr": 1, "kind": "range", "lo": 1, "hi": 3},
//	           {"attr": 3, "kind": "set", "values": [0, 5]}]}
//
// with constraints sorted by attribute. "eq" is sugar for a single-value
// range; "any" is accepted on input and dropped. CanonicalKey renders the
// same normal form as a compact string, the cache/dedup key of the server.

package query

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// wireConstraint is the JSON shape of one per-attribute constraint.
type wireConstraint struct {
	Attr int    `json:"attr"`
	Kind string `json:"kind"`
	// Value is set for kind "eq".
	Value *int `json:"value,omitempty"`
	// Lo and Hi are set for kind "range" (inclusive bounds).
	Lo *int `json:"lo,omitempty"`
	Hi *int `json:"hi,omitempty"`
	// Values is set for kind "set".
	Values []int `json:"values,omitempty"`
	// idx is the constraint's position in the request, for error messages
	// once the list has been put in attribute order.
	idx int
}

// wirePredicate is the JSON shape of a predicate.
type wirePredicate struct {
	NumAttrs int              `json:"num_attrs"`
	Where    []wireConstraint `json:"where,omitempty"`
}

// MarshalJSON renders the predicate in the wire format, constraints sorted
// by attribute index.
func (p *Predicate) MarshalJSON() ([]byte, error) {
	w := wirePredicate{NumAttrs: p.numAttrs}
	for _, ac := range p.cons {
		a, c := ac.attr, ac.c
		wc := wireConstraint{Attr: a}
		switch c.Kind {
		case InRange:
			if c.Range.Lo == c.Range.Hi {
				v := c.Range.Lo
				wc.Kind = "eq"
				wc.Value = &v
			} else {
				lo, hi := c.Range.Lo, c.Range.Hi
				wc.Kind = "range"
				wc.Lo, wc.Hi = &lo, &hi
			}
		case InSet:
			wc.Kind = "set"
			wc.Values = append([]int(nil), c.Values...)
		default:
			return nil, fmt.Errorf("query: cannot marshal constraint kind %d on attribute %d", c.Kind, a)
		}
		w.Where = append(w.Where, wc)
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses and validates the wire format. The error messages
// are meant to travel back to HTTP clients verbatim.
func (p *Predicate) UnmarshalJSON(data []byte) error {
	var w wirePredicate
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("query: malformed predicate JSON: %w", err)
	}
	q, err := w.predicate()
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// predicate validates the wire form and converts it: the admission rule of
// UnmarshalJSON and of DecodeJSONRead alike.
func (w wirePredicate) predicate() (Predicate, error) {
	if w.NumAttrs < 1 {
		return Predicate{}, fmt.Errorf("query: num_attrs must be >= 1, got %d", w.NumAttrs)
	}
	// The wire admits any order; the predicate keeps attribute order, which
	// also puts a duplicate next to its first occurrence.
	sorted := true
	for i := range w.Where {
		w.Where[i].idx = i
		sorted = sorted && (i == 0 || w.Where[i-1].Attr <= w.Where[i].Attr)
	}
	if !sorted {
		sort.SliceStable(w.Where, func(i, j int) bool { return w.Where[i].Attr < w.Where[j].Attr })
	}
	q := Predicate{numAttrs: w.NumAttrs}
	for k, wc := range w.Where {
		if wc.Attr < 0 || wc.Attr >= w.NumAttrs {
			return Predicate{}, fmt.Errorf("query: where[%d]: attribute %d out of range [0,%d)", wc.idx, wc.Attr, w.NumAttrs)
		}
		if k > 0 && w.Where[k-1].Attr == wc.Attr {
			return Predicate{}, fmt.Errorf("query: where[%d]: duplicate constraint on attribute %d", wc.idx, wc.Attr)
		}
		c, err := wc.constraint()
		if err != nil {
			return Predicate{}, fmt.Errorf("query: where[%d]: %w", wc.idx, err)
		}
		if !c.IsAny() {
			q.cons = append(q.cons, attrConstraint{attr: wc.Attr, c: c})
		}
	}
	return q, nil
}

// constraint validates one wire constraint and converts it.
func (wc wireConstraint) constraint() (Constraint, error) {
	switch wc.Kind {
	case "any", "":
		return AnyValue(), nil
	case "eq":
		if wc.Value == nil {
			return Constraint{}, fmt.Errorf(`kind "eq" requires "value"`)
		}
		if *wc.Value < 0 {
			return Constraint{}, fmt.Errorf("eq value %d must be non-negative", *wc.Value)
		}
		return ValueEq(*wc.Value), nil
	case "range":
		if wc.Lo == nil || wc.Hi == nil {
			return Constraint{}, fmt.Errorf(`kind "range" requires "lo" and "hi"`)
		}
		return ValueIn(NewRange(*wc.Lo, *wc.Hi)), checkRange(*wc.Lo, *wc.Hi)
	case "set":
		// The decoded list is this constraint's own: no copy.
		return ownedSet(wc.Values), checkSet(wc.Values)
	default:
		return Constraint{}, fmt.Errorf("unknown constraint kind %q (want any, eq, range, or set)", wc.Kind)
	}
}

// CanonicalKey returns a compact, injective string form of the predicate:
// two predicates produce the same key iff they have the same arity and
// attribute-wise constraints (sets compared after sort+dedup). It is the
// cache key of the summaryd result cache.
//
// The format is "#<num_attrs>" followed by "|<attr><tag><args>" per
// constrained attribute in ascending attribute order, where the tag is
// 'r' (range, "lo:hi") or 's' (set, comma-joined values).
func (p *Predicate) CanonicalKey() string { return string(p.AppendCanonical(nil)) }

// AppendCanonical appends the CanonicalKey form to dst and returns the
// extended slice, so a caller keying many predicates reuses one buffer.
func (p *Predicate) AppendCanonical(dst []byte) []byte {
	dst = append(dst, '#')
	dst = strconv.AppendInt(dst, int64(p.numAttrs), 10)
	for _, ac := range p.cons {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(ac.attr), 10)
		switch ac.c.Kind {
		case InRange:
			dst = append(dst, 'r')
			dst = strconv.AppendInt(dst, int64(ac.c.Range.Lo), 10)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(ac.c.Range.Hi), 10)
		case InSet:
			dst = append(dst, 's')
			for i, v := range ac.c.Values {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(v), 10)
			}
		}
	}
	return dst
}

// Equal reports whether the two predicates constrain the same attributes
// identically (sets compared after their construction-time sort+dedup).
func (p *Predicate) Equal(o *Predicate) bool {
	if p.numAttrs != o.numAttrs || len(p.cons) != len(o.cons) {
		return false
	}
	for i, ac := range p.cons {
		oc := o.cons[i]
		if ac.attr != oc.attr || ac.c.Kind != oc.c.Kind || ac.c.Range != oc.c.Range ||
			!slices.Equal(ac.c.Values, oc.c.Values) {
			return false
		}
	}
	return true
}
