// Package relation implements the in-memory columnar store for a single
// encoded relation: an ordered bag of tuples over the active domains of a
// schema (the "slotted possible world" of Sec. 2.1). It also provides the
// counting primitives (selection counts, group-by counts, 2D histograms and
// frequency vectors) that the statistics subsystem, the exact ground-truth
// engine, and the sampling baselines are built on.
package relation

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/schema"
)

// Relation is an ordered bag of encoded tuples stored column-major. Each
// column value is the index of the tuple's value in the attribute's active
// domain, stored in two bytes: a schema admits no domain of more than 65536
// values, so every index fits.
type Relation struct {
	sch  *schema.Schema
	cols [][]uint16
	rows int
}

// New creates an empty relation over the given schema.
func New(sch *schema.Schema) *Relation {
	cols := make([][]uint16, sch.NumAttrs())
	return &Relation{sch: sch, cols: cols}
}

// NewWithCapacity creates an empty relation with storage preallocated for n
// rows.
func NewWithCapacity(sch *schema.Schema, n int) *Relation {
	r := New(sch)
	for i := range r.cols {
		r.cols[i] = make([]uint16, 0, n)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.sch }

// NumRows returns the cardinality n of the relation.
func (r *Relation) NumRows() int { return r.rows }

// NumAttrs returns the arity m of the relation.
func (r *Relation) NumAttrs() int { return r.sch.NumAttrs() }

// Append adds one encoded tuple. The tuple length must equal the arity and
// every value must lie inside its attribute's active domain.
func (r *Relation) Append(tuple []int) error {
	if len(tuple) != r.sch.NumAttrs() {
		return fmt.Errorf("relation: tuple has %d values, schema has %d attributes", len(tuple), r.sch.NumAttrs())
	}
	for i, v := range tuple {
		if v < 0 || v >= r.sch.Attr(i).Size() {
			return fmt.Errorf("relation: value %d out of domain [0,%d) for attribute %q",
				v, r.sch.Attr(i).Size(), r.sch.Attr(i).Name())
		}
	}
	for i, v := range tuple {
		r.cols[i] = append(r.cols[i], uint16(v))
	}
	r.rows++
	return nil
}

// MustAppend is like Append but panics on error. Generators use it for
// tuples they constructed themselves.
func (r *Relation) MustAppend(tuple []int) {
	if err := r.Append(tuple); err != nil {
		panic(err)
	}
}

// Value returns the encoded value of attribute attr in row i.
func (r *Relation) Value(row, attr int) int { return int(r.cols[attr][row]) }

// Row copies row i into dst (allocating when dst is too small) and returns
// it.
func (r *Relation) Row(i int, dst []int) []int {
	m := r.sch.NumAttrs()
	if cap(dst) < m {
		dst = make([]int, m)
	}
	dst = dst[:m]
	for a := 0; a < m; a++ {
		dst[a] = int(r.cols[a][i])
	}
	return dst
}

// Column returns a read-only view of the encoded values of one attribute.
// Callers must not modify the returned slice.
func (r *Relation) Column(attr int) []uint16 { return r.cols[attr] }

// Count returns |σ_π(I)|, the number of rows satisfying the predicate.
func (r *Relation) Count(pred *query.Predicate) int {
	if pred == nil {
		return r.rows
	}
	attrs := pred.ConstrainedAttrs()
	if len(attrs) == 0 {
		return r.rows
	}
	count := 0
	constraints := make([]query.Constraint, len(attrs))
	for k, a := range attrs {
		constraints[k] = pred.Constraint(a)
	}
rows:
	for i := 0; i < r.rows; i++ {
		for k, a := range attrs {
			if !constraints[k].Matches(int(r.cols[a][i])) {
				continue rows
			}
		}
		count++
	}
	return count
}

// GroupKey identifies one group in a group-by count; it aliases the shared
// core.GroupKey so every engine agrees on one key layout.
type GroupKey = core.GroupKey

// MakeGroupKey packs up to four encoded values into a GroupKey.
func MakeGroupKey(values []int) GroupKey { return core.MakeGroupKey(values) }

// GroupCounts returns the exact COUNT(*) per combination of values of the
// grouping attributes among rows satisfying pred (pred may be nil). At most
// four grouping attributes are supported, matching the paper's 2–4D
// selection templates.
func (r *Relation) GroupCounts(groupAttrs []int, pred *query.Predicate) map[GroupKey]int {
	if len(groupAttrs) == 0 || len(groupAttrs) > 4 {
		panic(fmt.Sprintf("relation: group-by needs 1..4 attributes, got %d", len(groupAttrs)))
	}
	out := make(map[GroupKey]int)
	var predAttrs []int
	var constraints []query.Constraint
	if pred != nil {
		predAttrs = pred.ConstrainedAttrs()
		constraints = make([]query.Constraint, len(predAttrs))
		for k, a := range predAttrs {
			constraints[k] = pred.Constraint(a)
		}
	}
	vals := make([]int, len(groupAttrs))
rows:
	for i := 0; i < r.rows; i++ {
		for k, a := range predAttrs {
			if !constraints[k].Matches(int(r.cols[a][i])) {
				continue rows
			}
		}
		for k, a := range groupAttrs {
			vals[k] = int(r.cols[a][i])
		}
		out[MakeGroupKey(vals)]++
	}
	return out
}

// Histogram1D returns the per-value counts of a single attribute.
func (r *Relation) Histogram1D(attr int) []int {
	col := r.cols[attr][:r.rows]
	return r.countBlocks(r.sch.Attr(attr).Size(), func(out []int, lo, hi int) {
		for _, v := range col[lo:hi] {
			out[v]++
		}
	})
}

// Histogram2D returns the joint count matrix counts[v1][v2] of the attribute
// pair (a1, a2). The rows are carved from one row-major slab, and the scan
// counts straight into it: one indexed increment per row.
func (r *Relation) Histogram2D(a1, a2 int) [][]int {
	n1 := r.sch.Attr(a1).Size()
	n2 := r.sch.Attr(a2).Size()
	c1 := r.cols[a1][:r.rows]
	c2 := r.cols[a2][:r.rows]
	flat := r.countBlocks(n1*n2, func(out []int, lo, hi int) {
		c2 := c2[lo:hi]
		for i, v1 := range c1[lo:hi] {
			out[int(v1)*n2+int(c2[i])]++
		}
	})
	out := make([][]int, n1)
	for i := range out {
		out[i], flat = flat[:n2:n2], flat[n2:]
	}
	return out
}

// blockRows is the fewest rows a counting block holds: below it, a worker
// and its private table cost more than the rows they count.
const blockRows = 1 << 16

// countBlocks returns a table of n counts filled by count, which adds rows
// [lo, hi) of the relation into out. The rows are cut into contiguous
// blocks of max(blockRows, n) rows, so merging a table costs no more than
// counting one block, and w = min(GOMAXPROCS, rows/block) workers count
// them, each into a private table, each claiming the next uncounted block
// until none is left — a worker whose core is busy elsewhere counts fewer
// blocks instead of holding the others up. The tables are then summed.
// Counts are integers, so the result depends neither on w nor on which
// worker counted which block.
func (r *Relation) countBlocks(n int, count func(out []int, lo, hi int)) []int {
	out := make([]int, n)
	block := max(blockRows, n)
	w := min(runtime.GOMAXPROCS(0), r.rows/block)
	if w <= 1 {
		count(out, 0, r.rows)
		return out
	}
	var claimed atomic.Int64
	tables := make([][]int, w)
	tables[0] = out
	var wg sync.WaitGroup
	for k := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if k > 0 {
				tables[k] = make([]int, n)
			}
			for {
				lo := int(claimed.Add(int64(block))) - block
				if lo >= r.rows {
					return
				}
				count(tables[k], lo, min(lo+block, r.rows))
			}
		}()
	}
	wg.Wait()
	for _, t := range tables[1:] {
		for i, c := range t {
			out[i] += c
		}
	}
	return out
}

// Slice returns a read-only view of the contiguous row range [lo, hi):
// the view shares the column storage of the receiver, so it costs O(m)
// regardless of the range size. Appending to either relation afterwards is
// not supported. Refresh deltas, branch forks and frozen views are slices.
func (r *Relation) Slice(lo, hi int) (*Relation, error) {
	if lo < 0 || hi > r.rows || lo > hi {
		return nil, fmt.Errorf("relation: slice [%d,%d) out of range [0,%d)", lo, hi, r.rows)
	}
	cols := make([][]uint16, len(r.cols))
	for a, col := range r.cols {
		cols[a] = col[lo:hi:hi]
	}
	return &Relation{sch: r.sch, cols: cols, rows: hi - lo}, nil
}

// Select returns a new relation containing the rows with the given indexes
// (in order). Indexes may repeat.
func (r *Relation) Select(rows []int) *Relation {
	out := NewWithCapacity(r.sch, len(rows))
	buf := make([]int, r.sch.NumAttrs())
	for _, i := range rows {
		out.MustAppend(r.Row(i, buf))
	}
	return out
}

// ApproxBytes returns the in-memory footprint of the encoded relation (2
// bytes per value), used when reporting summary-vs-data sizes.
func (r *Relation) ApproxBytes() int64 {
	return int64(r.rows) * int64(r.sch.NumAttrs()) * 2
}
