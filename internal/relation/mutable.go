package relation

import (
	"fmt"
	"sync"

	"repro/internal/schema"
)

// Mutable is the live-ingestion wrapper around a Relation: an append log
// with a generation counter and a zero-copy freeze. It is the mutation
// boundary of the dataset lifecycle — everything downstream of a Freeze
// (statistics, solver, summaries, serving) still operates on immutable
// *Relation values, while appends accumulate here.
//
// Appends fill the relation's last part up to its capacity and then open a
// new part of blockRows rows, so an append costs its own rows and never
// copies the rows stored before it: wrapping a capped view (a frozen or
// sliced relation, whose last part is full) starts a new part at the first
// append instead of copying the view.
//
// Concurrency: Append/AppendRows/Freeze/NumRows/Generation may be called
// from any goroutine. Freeze returns a read-only view sharing the parts:
// appends only ever write slots past the length of the view's capped last
// part, or into a part the view does not hold, so frozen views stay valid
// and race-free while ingestion continues.
type Mutable struct {
	mu  sync.Mutex
	rel *Relation
	gen uint64 // bumped once per successful append batch
}

// NewMutable wraps a relation for live appends. The caller hands over
// ownership: the wrapped relation must not be used directly afterwards
// (Freeze returns safe views of it).
func NewMutable(rel *Relation) *Mutable {
	return &Mutable{rel: rel}
}

// Schema returns the relation's schema (immutable, so no lock is needed).
func (m *Mutable) Schema() *schema.Schema { return m.rel.sch }

// NumRows returns the current cardinality.
func (m *Mutable) NumRows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rel.rows
}

// Generation returns the number of successful append batches so far. It
// only ever increases, so callers can cheaply detect "anything new since
// I last looked".
func (m *Mutable) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Append adds one encoded tuple and bumps the generation.
func (m *Mutable) Append(tuple []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.rel.Append(tuple); err != nil {
		return err
	}
	m.gen++
	return nil
}

// AppendRows adds a batch of encoded tuples all-or-nothing: every row is
// validated against the schema before any is appended, so a bad row in the
// middle of a batch cannot leave a half-ingested prefix behind. It returns
// the number of rows appended (len(rows) on success, 0 on error).
func (m *Mutable) AppendRows(rows [][]int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sch := m.rel.sch
	for i, tuple := range rows {
		if len(tuple) != sch.NumAttrs() {
			return 0, fmt.Errorf("relation: row %d has %d values, schema has %d attributes", i, len(tuple), sch.NumAttrs())
		}
		for a, v := range tuple {
			if v < 0 || v >= sch.Attr(a).Size() {
				return 0, fmt.Errorf("relation: row %d: value %d out of domain [0,%d) for attribute %q",
					i, v, sch.Attr(a).Size(), sch.Attr(a).Name())
			}
		}
	}
	// Everything validated above; append straight into the parts rather
	// than paying Append's per-row validation a second time.
	for _, tuple := range rows {
		m.rel.appendValid(tuple)
	}
	if len(rows) > 0 {
		m.gen++
	}
	return len(rows), nil
}

// Freeze returns an immutable zero-copy view of the current rows together
// with the generation it captures. The view shares the column storage of
// the live relation — O(attrs · parts) regardless of size — and stays
// valid while appends continue: its parts are capped at their lengths, so
// a later append writes past the view's last row or into a new part,
// never through the view.
func (m *Mutable) Freeze() (*Relation, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	view, err := m.rel.Slice(0, m.rel.rows)
	if err != nil {
		panic(err) // unreachable: [0, rows) is always in range
	}
	return view, m.gen
}
