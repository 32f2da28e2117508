package fleet

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/query"
)

// RouterCacheHeader marks a routed read that was answered entirely on the
// router (value "hit"): from its cache, or by joining an identical
// in-flight read. Misses and partially cached batches carry no header —
// the request reached at least one node.
const RouterCacheHeader = "X-Router-Cache"

// routerQueryKey appends the router's freshness prefix, its half of every
// read-cache key; the other half is the item identity the node keys by too
// (query.BatchItem.AppendIdentity). The prefix differs from the node's
// deliberately: the router cannot know an estimator's generation before
// asking a node, so live reads key on an "l" marker and the generation
// travels in the cached value instead, checked against the generation table
// at serve time. Snapshot reads (version > 0) key on the version — those
// answers are immutable.
func routerQueryKey(dst []byte, estimator string, version int) []byte {
	dst = append(dst, estimator...)
	if version > 0 {
		dst = append(dst, "\x00s"...)
		dst = strconv.AppendInt(dst, int64(version), 10)
	} else {
		dst = append(dst, "\x00l"...)
	}
	return append(dst, 0)
}

// cachedRead is one stored answer: the answer itself, marked Cached, and
// the version of the model that gave it (0 for snapshot reads, which are
// immutable). Responses are encoded from it on a hit — never replayed raw —
// so a hit is bit-identical to what the node would have sent (float64
// counts survive Go's JSON round-trip exactly) while carrying an honest
// cached flag and latency.
type cachedRead struct {
	gen    uint64
	answer query.BatchAnswer
}

// genTable tracks which model version is current per estimator, so cached
// live answers can be proven current without a node round trip. A version
// names one model on every node (server.Entry.Version), which makes the
// rule exact:
//
//   - a routed write fences its dataset at the version its response
//     reports (IngestResult.Generation): the floor, below which no answer
//     holds every write the router proxied;
//   - a response at version v is cached only when v is at least its
//     dataset's floor and is the newest version seen of its estimator (a
//     lagging replica's answer is relayed, not cached);
//   - a cached entry is served only while its version still equals the
//     table's newest and meets the floor — checked at serve time, so an
//     entry stored by a request racing a write is fenced the moment the
//     write lands.
//
// Writes that bypass the router are invisible to it (same contract as
// /sync/notify: the router is the write path). Snapshot reads never
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
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen < t.floorLocked(name) {
		return false // node behind: it does not serve a routed write yet
	}
	if gen > t.newest[name] {
		t.newest[name] = gen
	}
	return gen == t.newest[name]
}

// current returns the version a cached live entry must carry to be served;
// ok is false when nothing may be served (estimator never observed, or its
// newest version below the floor of a write no response has caught up to).
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
// the leader's entry when ok.
type flight struct {
	done  chan struct{}
	entry cachedRead
	ok    bool
}

// flightGroup collapses concurrent identical cache misses into a single
// upstream request (the hand-rolled core of x/sync/singleflight: the
// leader forwards, stores, then releases followers). The leader puts the
// entry in the cache before leaving the group, so by the time any follower
// wakes the answer is cached — N concurrent identical cold reads cost
// exactly one node round trip.
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

// leave publishes the leader's result and releases every follower.
func (g *flightGroup) leave(key string, fl *flight, entry cachedRead, ok bool) {
	fl.entry, fl.ok = entry, ok
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}
