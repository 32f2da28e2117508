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
// the generation of the node that gave it (0 for snapshot reads, which are
// immutable). Responses are encoded from it on a hit — never replayed raw —
// so a hit is bit-identical to what the node would have sent (float64
// counts survive Go's JSON round-trip exactly) while carrying an honest
// cached flag and latency.
type cachedRead struct {
	gen    uint64
	answer query.BatchAnswer
}

// genState is one estimator's generation bookkeeping: gen is the highest
// generation observed from any node response, floor the lowest generation
// still admissible after the last routed write.
type genState struct {
	gen   uint64
	floor uint64
}

// genTable tracks per-estimator generations so cached live answers can be
// proven current without a node round trip. The invariant that makes the
// cache never-stale:
//
//   - a response at generation g is cached only when g >= floor (the node
//     has applied every write the router proxied) and g is the highest
//     generation seen (a lagging replica's answer is relayed, not cached);
//   - a cached entry is served only while its generation still equals the
//     table's — checked at serve time, so an entry stored by a request
//     racing a write is fenced the moment the write lands;
//   - a routed write fences its dataset: floor = gen+1, which no already-
//     issued response can satisfy, because a published write always swaps
//     the estimator to a strictly higher generation than any answer the
//     router has observed. The fence also covers estimators the router
//     has NEVER observed: their dataset is remembered as fenced, and the
//     first generation seen afterwards is refused (it may be a lagging
//     replica's pre-write answer) — only a strictly newer one is cached;
//   - an answer the primary gave to a fetch sent after the estimator's
//     last fence is post-write whatever its generation: the primary swaps
//     before its ingest returns, and the router fences only after that. So
//     such an answer lifts the floor to its own generation when it is the
//     newest seen, and a static estimator first observed after a write
//     becomes cacheable at its first primary answer.
//
// Writes that bypass the router are invisible to it (same contract as
// /sync/notify: the router is the write path). Snapshot reads never
// consult the table — retained versions are immutable.
type genTable struct {
	mu sync.Mutex
	m  map[string]*genState
	// epoch counts the fences so far. fenced maps each fenced dataset to
	// the epoch of its last fence, so estimators first observed AFTER the
	// write start behind a floor too; all is the epoch of the last fence
	// of everything (unparseable write path), 0 if none.
	epoch  uint64
	fenced map[string]uint64
	all    uint64
}

func newGenTable() *genTable {
	return &genTable{m: make(map[string]*genState), fenced: make(map[string]uint64)}
}

// sent returns the epoch a fetch takes before it is sent: the fetch is
// post-fence for every fence whose epoch is at most this one.
func (t *genTable) sent() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// lastFenceLocked returns the epoch of the last fence covering the
// estimator name, 0 if none. Callers hold t.mu.
func (t *genTable) lastFenceLocked(name string) uint64 {
	last := t.all
	for d, e := range t.fenced {
		if e > last && (name == d || strings.HasPrefix(name, d+"/")) {
			last = e
		}
	}
	return last
}

// observe records a node response's generation and reports whether an
// answer at that generation may be cached: it must not predate the last
// routed write, and it must be the newest generation seen. sent is the
// epoch the fetch took before it was sent, and primary whether the
// primary answered it.
func (t *genTable) observe(name string, gen, sent uint64, primary bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.lastFenceLocked(name)
	st := t.m[name]
	if st == nil {
		st = &genState{}
		if last > 0 {
			// A routed write predates every observation of this estimator:
			// unless proven post-write below, refuse this answer and admit
			// only a strictly newer generation.
			st.floor = gen + 1
		}
		t.m[name] = st
	}
	if primary && sent >= last && gen >= st.gen && gen < st.floor {
		st.floor = gen // the primary answered after the last fence
	}
	if gen < st.floor {
		return false // node behind: it has not applied a routed write yet
	}
	if gen > st.gen {
		st.gen = gen
	}
	return gen == st.gen
}

// current returns the generation a cached live entry must carry to be
// served; ok is false when nothing may be served (estimator never
// observed, or fenced by a write no response has caught up to).
func (t *genTable) current(name string) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[name]
	if st == nil || st.gen < st.floor {
		return 0, false
	}
	return st.gen, true
}

// fence marks every estimator of dataset as written-over: no cached live
// answer may be served and no response at an already-seen generation may
// be cached until a strictly newer generation, or the primary's answer to
// a fetch sent after the fence, is observed. An empty dataset fences
// everything. The fence's epoch is remembered per dataset, so estimators
// first observed after the write start fenced too (see observe).
func (t *genTable) fence(dataset string) {
	prefix := dataset + "/"
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch++
	if dataset == "" {
		t.all = t.epoch
	} else {
		t.fenced[dataset] = t.epoch
	}
	for name, st := range t.m {
		if dataset == "" || name == dataset || strings.HasPrefix(name, prefix) {
			st.floor = st.gen + 1
		}
	}
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

// invalidateDataset fences and drops every cached answer a routed write
// to dataset may have changed. The fence is what guarantees freshness —
// an entry stored by a read racing this write is refused at serve time —
// while the prefix drops just reclaim LRU capacity, mirroring the node-
// side hot-swap invalidation. Snapshot entries of the dataset are dropped
// too; they are immutable and simply re-warm on next touch.
func (rt *Router) invalidateDataset(dataset string) {
	if rt.cache == nil {
		return
	}
	rt.gens.fence(dataset)
	if dataset == "" {
		rt.cache.InvalidatePrefix("")
		return
	}
	rt.cache.InvalidatePrefix(dataset + "\x00")
	rt.cache.InvalidatePrefix(dataset + "/")
}
