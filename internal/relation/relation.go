// Package relation implements the in-memory columnar store for a single
// encoded relation: an ordered bag of tuples over the active domains of a
// schema (the "slotted possible world" of Sec. 2.1). It also provides the
// counting primitives (selection counts, group-by counts, joint tables of
// attribute pairs, frequency vectors and box counts) that the statistics
// subsystem, the exact ground-truth engine, and the sampling baselines are
// built on.
package relation

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/schema"
)

// Relation is an ordered bag of encoded tuples stored column-major in a
// list of parts. Each column value is the index of the tuple's value in the
// attribute's active domain, stored in two bytes: a schema admits no domain
// of more than 65536 values, so every index fits.
//
// A part holds one column per attribute, all of the same length. A relation
// made with NewWithCapacity (and so every loaded or generated one) is a
// single part; appends past a part's capacity open a new part of blockRows
// rows instead of copying the rows already stored, so a growing relation
// never moves its earlier rows and views of it share them.
type Relation struct {
	sch   *schema.Schema
	parts []part
	rows  int
}

// part is a run of consecutive rows: its columns, and the index of its
// first row in the relation.
type part struct {
	start int
	cols  [][]uint16
}

func (p *part) len() int { return len(p.cols[0]) }

func newPart(m, start, capacity int) part {
	cols := make([][]uint16, m)
	for a := range cols {
		cols[a] = make([]uint16, 0, capacity)
	}
	return part{start: start, cols: cols}
}

// New creates an empty relation over the given schema.
func New(sch *schema.Schema) *Relation {
	return &Relation{sch: sch}
}

// NewWithCapacity creates an empty relation with storage preallocated for n
// rows in one part.
func NewWithCapacity(sch *schema.Schema, n int) *Relation {
	r := New(sch)
	if n > 0 {
		r.parts = []part{newPart(sch.NumAttrs(), 0, n)}
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
	r.appendValid(tuple)
	return nil
}

// AppendRows adds a batch of encoded tuples all-or-nothing: every row is
// validated against the schema before any is appended, so a bad row in the
// middle of a batch cannot leave a half-ingested prefix behind.
func (r *Relation) AppendRows(rows [][]int) error {
	sch := r.sch
	for i, tuple := range rows {
		if len(tuple) != sch.NumAttrs() {
			return fmt.Errorf("relation: row %d has %d values, schema has %d attributes", i, len(tuple), sch.NumAttrs())
		}
		for a, v := range tuple {
			if v < 0 || v >= sch.Attr(a).Size() {
				return fmt.Errorf("relation: row %d: value %d out of domain [0,%d) for attribute %q",
					i, v, sch.Attr(a).Size(), sch.Attr(a).Name())
			}
		}
	}
	// Everything validated above; append straight into the parts rather
	// than paying Append's per-row validation a second time.
	for _, tuple := range rows {
		r.appendValid(tuple)
	}
	return nil
}

// appendValid appends a tuple already checked against the schema into the
// last part, first opening a new part of blockRows rows when the last one
// is full.
func (r *Relation) appendValid(tuple []int) {
	k := len(r.parts) - 1
	if k < 0 || r.parts[k].len() == cap(r.parts[k].cols[0]) {
		r.parts = append(r.parts, newPart(len(tuple), r.rows, blockRows))
		k++
	}
	p := &r.parts[k]
	for a, v := range tuple {
		p.cols[a] = append(p.cols[a], uint16(v))
	}
	r.rows++
}

// MustAppend is like Append but panics on error. Generators use it for
// tuples they constructed themselves.
func (r *Relation) MustAppend(tuple []int) {
	if err := r.Append(tuple); err != nil {
		panic(err)
	}
}

// partOf returns the part holding row i, found by binary search over the
// parts' first rows.
func (r *Relation) partOf(i int) *part {
	if len(r.parts) == 1 {
		return &r.parts[0]
	}
	k := sort.Search(len(r.parts), func(k int) bool { return r.parts[k].start > i }) - 1
	return &r.parts[k]
}

// Value returns the encoded value of attribute attr in row i.
func (r *Relation) Value(row, attr int) int {
	p := r.partOf(row)
	return int(p.cols[attr][row-p.start])
}

// Row copies row i into dst (allocating when dst is too small) and returns
// it.
func (r *Relation) Row(i int, dst []int) []int {
	m := r.sch.NumAttrs()
	if cap(dst) < m {
		dst = make([]int, m)
	}
	dst = dst[:m]
	p := r.partOf(i)
	for a, col := range p.cols {
		dst[a] = int(col[i-p.start])
	}
	return dst
}

// Column returns the encoded values of one attribute. For a single-part
// relation it is a view of the column storage, which callers must not
// modify; for a relation of several parts it is a fresh copy, costing
// O(rows) — scans that care walk Parts instead.
func (r *Relation) Column(attr int) []uint16 {
	if len(r.parts) == 1 {
		return r.parts[0].cols[attr]
	}
	out := make([]uint16, 0, r.rows)
	for _, p := range r.parts {
		out = append(out, p.cols[attr]...)
	}
	return out
}

// Parts yields, in row order, the index of each part's first row and the
// part's columns, one per attribute and all of one length. Callers must
// not modify the columns.
func (r *Relation) Parts() iter.Seq2[int, [][]uint16] {
	return func(yield func(int, [][]uint16) bool) {
		for _, p := range r.parts {
			if !yield(p.start, p.cols) {
				return
			}
		}
	}
}

// Count returns |σ_π(I)|, the number of rows satisfying the predicate.
// The predicate is compiled once (NewFilter) and the rows are counted on
// every core by countBlocks.
func (r *Relation) Count(pred *query.Predicate) int {
	f := NewFilter(r.sch, pred)
	switch {
	case f.none:
		return 0
	case len(f.attrs) == 0:
		return r.rows
	}
	return countBlocks(r, 1, func(out []uint32, cols [][]uint16, lo, hi int) {
		out[0] += uint32(f.countRows(cols, lo, hi))
	})[0]
}

// GroupKey identifies one group in a group-by count; it aliases the shared
// core.GroupKey so every engine agrees on one key layout.
type GroupKey = core.GroupKey

// MakeGroupKey packs up to four encoded values into a GroupKey.
func MakeGroupKey(values []int) GroupKey { return core.MakeGroupKey(values) }

// Groups yields the values of the grouping attributes of every group that
// some row satisfying pred (nil for every row) falls in, with the group's
// COUNT(*); the scan runs when the sequence is ranged over. The values
// slice is reused from one group to the next: a caller that keeps it must
// copy it. At most four grouping attributes are supported, matching the
// paper's 2–4D selection templates.
//
// When the group space (the product of the grouping attributes' domain
// sizes) has no more cells than the relation has rows, countBlocks counts
// the rows into a dense mixed-radix table on every core, and the groups
// come in ascending lexicographic order of their values. A wider space is
// counted row by row into a map, and its groups come in no set order.
func (r *Relation) Groups(groupAttrs []int, pred *query.Predicate) iter.Seq2[[]int, int] {
	if len(groupAttrs) == 0 || len(groupAttrs) > 4 {
		panic(fmt.Sprintf("relation: group-by needs 1..4 attributes, got %d", len(groupAttrs)))
	}
	return func(yield func([]int, int) bool) {
		f := NewFilter(r.sch, pred)
		if f.none {
			return
		}
		vals := make([]int, len(groupAttrs))
		if strides, ok := r.groupStrides(groupAttrs); ok {
			for i, c := range r.denseGroupCounts(groupAttrs, strides, f) {
				if c == 0 {
					continue
				}
				rem := i
				for k, s := range strides {
					vals[k], rem = rem/s, rem%s
				}
				if !yield(vals, c) {
					return
				}
			}
			return
		}
		counts := make(map[GroupKey]int)
		for _, p := range r.parts {
			for i := range p.len() {
				if !f.Admits(p.cols, i) {
					continue
				}
				for k, a := range groupAttrs {
					vals[k] = int(p.cols[a][i])
				}
				counts[MakeGroupKey(vals)]++
			}
		}
		for key, c := range counts {
			for k := range vals {
				vals[k] = int(key[k])
			}
			if !yield(vals, c) {
				return
			}
		}
	}
}

// groupStrides returns the mixed-radix strides of the dense group table
// over groupAttrs (the last attribute varies fastest), and whether the
// table has no more cells than the relation has rows. The check divides
// rather than multiplies, so no product of domain sizes can overflow.
func (r *Relation) groupStrides(groupAttrs []int) ([]int, bool) {
	strides := make([]int, len(groupAttrs))
	cells := 1
	for k := len(groupAttrs) - 1; k >= 0; k-- {
		n := r.sch.Attr(groupAttrs[k]).Size()
		if cells > r.rows/n {
			return nil, false
		}
		strides[k] = cells
		cells *= n
	}
	return strides, true
}

// denseGroupCounts counts the rows f admits into the dense table of
// groupStrides, whose cell for values v is the sum of v[k]·strides[k]. A
// chunk of rows computes its cells column by column, then adds each row's
// filter mark (0 or 1) to its cell, so the scan does not branch per row.
func (r *Relation) denseGroupCounts(groupAttrs, strides []int, f *Filter) []int {
	return countBlocks(r, strides[0]*r.sch.Attr(groupAttrs[0]).Size(), func(out []uint32, cols [][]uint16, lo, hi int) {
		var cell [chunkRows]int
		var sel [chunkRows]uint8
		for ; lo < hi; lo += chunkRows {
			m := min(chunkRows, hi-lo)
			c := cell[:m]
			for j, v := range cols[groupAttrs[0]][lo : lo+m] {
				c[j] = int(v) * strides[0]
			}
			for k, a := range groupAttrs[1:] {
				s := strides[k+1]
				for j, v := range cols[a][lo : lo+m] {
					c[j] += int(v) * s
				}
			}
			s := sel[:m]
			f.mark(s, cols, lo)
			for j, i := range c {
				out[i] += uint32(s[j])
			}
		}
	})
}

// Histogram1D returns the per-value counts of a single attribute.
func (r *Relation) Histogram1D(attr int) []int {
	return countBlocks(r, r.sch.Attr(attr).Size(), func(out []uint32, cols [][]uint16, lo, hi int) {
		for _, v := range cols[attr][lo:hi] {
			out[v]++
		}
	})
}

// Histogram2D returns the joint count matrix counts[v1][v2] of the attribute
// pair (a1, a2): PairTables of the one pair.
func (r *Relation) Histogram2D(a1, a2 int) [][]int {
	return r.PairTables([][2]int{{a1, a2}})[0]
}

// pairScratchCells bounds the cells PairTables counts in one scan, 1 MiB
// of uint32 cells per worker: pairs are counted in consecutive groups of at
// most this many cells (a larger pair alone), so a wide schema costs more
// scans, not more memory. The flights shape's ten pairs, 100,439 cells, are
// one group.
const pairScratchCells = 1 << 18

// PairTables returns, index-aligned with pairs, the joint count matrix
// counts[v1][v2] of each attribute pair (a1, a2). Every pair of a group
// (see pairScratchCells) is counted in one countBlocks scan of the rows,
// pair by pair within each block, so the block's columns stay in cache.
// The counts are integers: the tables depend neither on the split into
// blocks and workers nor on the grouping.
func (r *Relation) PairTables(pairs [][2]int) [][][]int {
	return pairTables[uint32](r, pairs)
}

// pairTables is PairTables counting into cells of type C.
func pairTables[C uint8 | uint32](r *Relation, pairs [][2]int) [][][]int {
	out := make([][][]int, len(pairs))
	for _, g := range r.pairGroups(pairs) {
		group := pairs[g[0]:g[1]]
		offs := make([]int, len(group)+1)
		for p, ab := range group {
			offs[p+1] = offs[p] + r.sch.Attr(ab[0]).Size()*r.sch.Attr(ab[1]).Size()
		}
		flat := countBlocks(r, offs[len(group)], func(t []C, cols [][]uint16, lo, hi int) {
			for p, ab := range group {
				countPair(t[offs[p]:offs[p+1]], cols[ab[0]][lo:hi], cols[ab[1]][lo:hi], r.sch.Attr(ab[1]).Size())
			}
		})
		for p, ab := range group {
			rows := make([][]int, r.sch.Attr(ab[0]).Size())
			n2 := r.sch.Attr(ab[1]).Size()
			for v := range rows {
				rows[v], flat = flat[:n2:n2], flat[n2:]
			}
			out[g[0]+p] = rows
		}
	}
	return out
}

// countPair adds one to cells[v1·n2 + v2] for the values v1 and v2 of
// each row of the columns c1 and c2, eight rows a step: the unrolled loop
// spends fewer instructions per row on its own bookkeeping.
func countPair[C uint8 | uint32](cells []C, c1, c2 []uint16, n2 int) {
	c2 = c2[:len(c1)]
	i := 0
	for ; i+8 <= len(c1); i += 8 {
		a, b := c1[i:i+8:i+8], c2[i:i+8:i+8]
		cells[int(a[0])*n2+int(b[0])]++
		cells[int(a[1])*n2+int(b[1])]++
		cells[int(a[2])*n2+int(b[2])]++
		cells[int(a[3])*n2+int(b[3])]++
		cells[int(a[4])*n2+int(b[4])]++
		cells[int(a[5])*n2+int(b[5])]++
		cells[int(a[6])*n2+int(b[6])]++
		cells[int(a[7])*n2+int(b[7])]++
	}
	for ; i < len(c1); i++ {
		cells[int(c1[i])*n2+int(c2[i])]++
	}
}

// pairGroups cuts pairs into the consecutive groups PairTables counts in
// one scan each, as [first, end) index ranges: each group takes pairs
// while their cells fit in pairScratchCells, and at least one.
func (r *Relation) pairGroups(pairs [][2]int) [][2]int {
	var groups [][2]int
	cells := 0
	for i, ab := range pairs {
		n := r.sch.Attr(ab[0]).Size() * r.sch.Attr(ab[1]).Size()
		if len(groups) == 0 || cells+n > pairScratchCells {
			groups = append(groups, [2]int{i, i})
			cells = 0
		}
		groups[len(groups)-1][1] = i + 1
		cells += n
	}
	return groups
}

// CountBoxes returns, index-aligned with boxes, the number of rows inside
// each box: a conjunction of inclusive ranges aligned with attrs, which
// names at least one attribute. One scan
// counts every box. Each value of each attribute maps to the bitset of the
// boxes whose range on that attribute holds it; a row lies in the boxes
// left in the AND of its values' bitsets. The scan costs
// O(rows · len(attrs) · ⌈len(boxes)/64⌉) whatever the boxes, and builds no
// joint table over the attributes' domains. It is exact for overlapping
// boxes too, though at most one bit survives when the boxes are pairwise
// disjoint, as the statistics over one attribute set are.
func (r *Relation) CountBoxes(attrs []int, boxes [][]query.Range) []int {
	words := (len(boxes) + 63) / 64
	masks := make([][]uint64, len(attrs))
	for k, a := range attrs {
		n := r.sch.Attr(a).Size()
		mask := make([]uint64, n*words)
		for b, box := range boxes {
			for v := max(box[k].Lo, 0); v <= min(box[k].Hi, n-1); v++ {
				mask[v*words+b/64] |= 1 << (b % 64)
			}
		}
		masks[k] = mask
	}
	return countBlocks(r, len(boxes), func(out []uint32, cols [][]uint16, lo, hi int) {
		off := make([]int, len(attrs)) // the row's values' offsets into masks
		for i := lo; i < hi; i++ {
			for k, a := range attrs {
				off[k] = int(cols[a][i]) * words
			}
			for j := 0; j < words; j++ {
				in := masks[0][off[0]+j]
				for k := 1; in != 0 && k < len(attrs); k++ {
					in &= masks[k][off[k]+j]
				}
				for ; in != 0; in &= in - 1 {
					out[j*64+bits.TrailingZeros64(in)]++
				}
			}
		}
	})
}

// blockRows is the fewest rows a counting block holds: below it, a worker
// and its private table cost more than the rows they count. It is also the
// capacity of every part an append opens.
const blockRows = 1 << 16

// countBlocks returns a table of n counts filled by count, which adds rows
// [lo, hi) of one part, whose columns are cols, into out, adding no more
// than hi − lo to any cell. Each part is cut into contiguous blocks of
// max(blockRows, n) rows, so merging a table costs no more than counting
// one block, and w = min(GOMAXPROCS, rows/block) workers count them, each
// claiming the next uncounted block until none is left — a worker whose
// core is busy elsewhere counts fewer blocks instead of holding the others
// up. Each worker counts into a private table of C cells and adds it into
// the result, under a lock, when no block is left — and also, so that no
// cell wraps, whenever it has counted as many rows as a C holds since it
// last added (2^32−1 for uint32). Counts are integers, so the result
// depends neither on w, nor on which worker counted which block, nor on
// where the parts begin.
func countBlocks[C uint8 | uint32](r *Relation, n int, count func(out []C, cols [][]uint16, lo, hi int)) []int {
	out := make([]int, n)
	block := max(blockRows, n)
	spans := make([]span, 0, r.rows/block+len(r.parts))
	for _, p := range r.parts {
		for lo := 0; lo < p.len(); lo += block {
			spans = append(spans, span{p.cols, lo, min(lo+block, p.len())})
		}
	}
	w := min(runtime.GOMAXPROCS(0), r.rows/block)
	if w <= 1 {
		// One worker takes no lock, and its counter stays on the stack: the
		// workers' pair below escapes through their closure.
		countSpans(spans, out, new(atomic.Int64), nil, count)
		return out
	}
	var claimed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			countSpans(spans, out, &claimed, &mu, count)
		}()
	}
	wg.Wait()
	return out
}

// span is a block of countBlocks: rows [lo, hi) of a part whose columns
// are cols.
type span struct {
	cols   [][]uint16
	lo, hi int
}

// countSpans is one worker of countBlocks: it counts the spans it claims
// into a private table of C cells and adds the table into out under mu (nil
// for a lone worker).
func countSpans[C uint8 | uint32](spans []span, out []int, claimed *atomic.Int64, mu *sync.Mutex, count func(out []C, cols [][]uint16, lo, hi int)) {
	limit := int(min(uint64(^C(0)), math.MaxInt))
	t := make([]C, len(out))
	counted := 0
	for b := int(claimed.Add(1)) - 1; b < len(spans); b = int(claimed.Add(1)) - 1 {
		for lo, hi := spans[b].lo, spans[b].hi; lo < hi; {
			m := min(hi-lo, limit-counted)
			count(t, spans[b].cols, lo, lo+m)
			lo += m
			if counted += m; counted == limit {
				addCells(out, t, mu)
				clear(t)
				counted = 0
			}
		}
	}
	addCells(out, t, mu)
}

// addCells adds t into out, under mu unless it is nil.
func addCells[C uint8 | uint32](out []int, t []C, mu *sync.Mutex) {
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	for i, c := range t {
		out[i] += int(c)
	}
}

// Slice returns a read-only view of the contiguous row range [lo, hi):
// the view shares the column storage of the receiver, so it costs
// O(m · parts) regardless of the range size. Each of the view's parts is
// capped at its length, so an append to the view opens a new part and an
// append to the receiver writes only past the view's rows: neither moves
// or overwrites the other's rows. Refresh deltas and frozen views are
// slices.
func (r *Relation) Slice(lo, hi int) (*Relation, error) {
	if lo < 0 || hi > r.rows || lo > hi {
		return nil, fmt.Errorf("relation: slice [%d,%d) out of range [0,%d)", lo, hi, r.rows)
	}
	out := New(r.sch)
	out.rows = hi - lo
	for _, p := range r.parts {
		from, to := max(lo, p.start)-p.start, min(hi, p.start+p.len())-p.start
		if from >= to {
			continue
		}
		cols := make([][]uint16, len(p.cols))
		for a, col := range p.cols {
			cols[a] = col[from:to:to]
		}
		out.parts = append(out.parts, part{start: p.start + from - lo, cols: cols})
	}
	return out, nil
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
