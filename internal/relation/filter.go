package relation

import (
	"repro/internal/query"
	"repro/internal/schema"
)

// Filter is a predicate compiled against a schema: one admitted-value table
// per constrained attribute, indexed by the attribute's encoded values, so
// a row is tested by one table lookup per attribute instead of a
// Constraint.Matches switch (and a binary search for a set). Every
// filtered row scan of the repository — Count, Groups and the sampling
// baselines — reads one.
type Filter struct {
	attrs []int
	// admit[k][v] is 1 when value v of attrs[k] satisfies its constraint
	// and 0 otherwise; uint8 rather than bool, so scans AND and add the
	// entries without branching.
	admit [][]uint8
	none  bool
}

// NewFilter compiles pred (nil admits every row) against sch. A set
// constraint admits exactly its listed values, sorted or not; values and
// range ends outside the attribute's domain admit nothing, and so does a
// constraint of an unknown kind, as in Constraint.Matches (a predicate
// stores no Any constraint). A constraint that admits the whole domain is
// dropped, and one that admits none of it makes the filter reject every
// row.
func NewFilter(sch *schema.Schema, pred *query.Predicate) *Filter {
	f := &Filter{}
	if pred == nil {
		return f
	}
	for _, a := range pred.ConstrainedAttrs() {
		c, n := pred.Constraint(a), sch.Attr(a).Size()
		admit := make([]uint8, n)
		switch c.Kind {
		case query.InRange:
			for v := max(c.Range.Lo, 0); v <= min(c.Range.Hi, n-1); v++ {
				admit[v] = 1
			}
		case query.InSet:
			for _, v := range c.Values {
				if v >= 0 && v < n {
					admit[v] = 1
				}
			}
		}
		admitted := 0
		for _, b := range admit {
			admitted += int(b)
		}
		switch admitted {
		case 0:
			return &Filter{none: true}
		case n:
			continue
		}
		f.attrs = append(f.attrs, a)
		f.admit = append(f.admit, admit)
	}
	return f
}

// Admits reports whether row i of a part, whose columns are cols, passes.
func (f *Filter) Admits(cols [][]uint16, i int) bool {
	if f.none {
		return false
	}
	for k, a := range f.attrs {
		if f.admit[k][cols[a][i]] == 0 {
			return false
		}
	}
	return true
}

// chunkRows is the most rows a compiled scan evaluates column by column at
// once; its per-row scratch lives on the stack.
const chunkRows = 1024

// mark sets sel[j] to 1 when row lo+j of cols passes the filter and to 0
// otherwise, for every j < len(sel). The filter must admit some row.
func (f *Filter) mark(sel []uint8, cols [][]uint16, lo int) {
	for j := range sel {
		sel[j] = 1
	}
	for k, a := range f.attrs {
		admit := f.admit[k]
		for j, v := range cols[a][lo : lo+len(sel)] {
			sel[j] &= admit[v]
		}
	}
}

// countRows returns how many of rows [lo, hi) of cols pass the filter,
// which must admit some row.
func (f *Filter) countRows(cols [][]uint16, lo, hi int) int {
	var sel [chunkRows]uint8
	n := 0
	for ; lo < hi; lo += chunkRows {
		s := sel[:min(chunkRows, hi-lo)]
		f.mark(s, cols, lo)
		for _, b := range s {
			n += int(b)
		}
	}
	return n
}
