package server

import (
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/schema"
)

// PendingRows returns a view of the rows a live dataset holds: those
// accepted since its last refresh's cut, in arrival order.
func PendingRows(l *Live) *relation.Relation {
	l.mu.Lock()
	defer l.mu.Unlock()
	view, _ := l.pending.Slice(0, l.pending.NumRows())
	return view
}

// Swap serves est under name at the name's next version, as a refresh on a
// storeless node publishes it.
func Swap(reg *Registry, name string, est core.Estimator, sch *schema.Schema) (Entry, error) {
	return publish(reg, nil, nil, name, est, sch, 0, false)
}
