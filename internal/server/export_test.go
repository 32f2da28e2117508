package server

import "repro/internal/relation"

// PendingRows returns a view of the rows a live dataset holds: those
// accepted since its last refresh's cut, in arrival order.
func PendingRows(l *Live) *relation.Relation {
	l.mu.Lock()
	defer l.mu.Unlock()
	view, _ := l.pending.Slice(0, l.pending.NumRows())
	return view
}
