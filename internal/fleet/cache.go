package fleet

import (
	"strings"
	"sync"

	"repro/internal/query"
)

// RouterCacheHeader marks a routed read that was answered entirely on the
// router (value "hit"): from its cache, or by joining an identical
// in-flight read. Misses and partially cached batches carry no header —
// the request reached at least one node.
const RouterCacheHeader = "X-Router-Cache"

// genTable tracks which model version is current per estimator, so a live
// read can be keyed at it without a node round trip. A version names one
// model on every node (server.Entry.Version), and every read-cache key
// carries the version of the model that answered (server.AppendKeyPrefix),
// which makes the rule exact:
//
//   - a routed write fences its dataset at the version its response
//     reports (IngestResult.Generation): the floor, below which no answer
//     holds every write the router proxied;
//   - a live response at version v is cached, under v, only when v is at
//     least its dataset's floor and is the newest version seen of its
//     estimator (a lagging replica's answer is relayed, not cached);
//   - a live read looks up the version the table calls current, and misses
//     when none is — so once a write lands, an entry of an older version,
//     even one stored by a request racing the write, is never read again.
//
// Writes that bypass the router are invisible to it (same contract as
// /sync/notify: the router is the write path). Versioned reads never
// consult the table — retained versions are immutable.
type genTable struct {
	mu     sync.Mutex
	newest map[string]uint64 // per estimator
	floor  map[string]uint64 // per dataset
}

func newGenTable() *genTable {
	return &genTable{newest: make(map[string]uint64), floor: make(map[string]uint64)}
}

// floorLocked returns the floor of the estimator's dataset, the name's part
// before its first "/". Callers hold t.mu.
func (t *genTable) floorLocked(name string) uint64 {
	dataset, _, _ := strings.Cut(name, "/")
	return t.floor[dataset]
}

// observe records a node response's version and reports whether an answer
// at that version may be cached.
func (t *genTable) observe(name string, gen uint64) bool {
	return t.admit(name, gen, func() {})
}

// admit is observe that, when the answer may be cached, stores it with put
// before the table is released: a live read keyed at gen by current finds
// the answer, never a gap in which it leads a second fetch of its own.
func (t *genTable) admit(name string, gen uint64, put func()) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen < t.floorLocked(name) {
		return false // node behind: it does not serve a routed write yet
	}
	if gen > t.newest[name] {
		t.newest[name] = gen
	}
	if gen != t.newest[name] {
		return false
	}
	put()
	return true
}

// current returns the version a live read is keyed at; ok is false when
// nothing may be served (estimator never observed, or its newest version
// below the floor of a write no response has caught up to).
func (t *genTable) current(name string) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	gen, ok := t.newest[name]
	return gen, ok && gen >= t.floorLocked(name)
}

// fence records that a routed write to dataset is held by version gen: no
// answer of the dataset's estimators below it may be cached or served.
func (t *genTable) fence(dataset string, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.floor[dataset] = max(t.floor[dataset], gen)
}

// flight is one in-flight cache miss; followers block on done and reuse
// the leader's answer when ok, if the version it names still serves them.
type flight struct {
	done    chan struct{}
	answer  query.BatchAnswer
	version uint64
	ok      bool
}

// flightGroup collapses concurrent identical cache misses into a single
// upstream request (the hand-rolled core of x/sync/singleflight: the
// leader forwards, stores, then releases followers). A flight is keyed as
// the cache is, at the version the read was keyed at; the leader puts the
// answer in the cache before leaving the group, so by the time any
// follower wakes the answer is cached — N concurrent identical cold reads
// cost exactly one node round trip.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup { return &flightGroup{m: make(map[string]*flight)} }

// join returns the flight for key and whether the caller is its leader
// (first joiner). The leader must call leave exactly once.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// leave publishes the leader's answer and the version it names, and
// releases every follower.
func (g *flightGroup) leave(key string, fl *flight, answer query.BatchAnswer, version uint64, ok bool) {
	fl.answer, fl.version, fl.ok = answer, version, ok
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}
