package fleet

import (
	"strings"
	"sync"
)

// RouterCacheHeader marks a routed read that was answered entirely from
// the router cache (value "hit"). Misses and partially cached batches carry
// no header — the request reached a node.
const RouterCacheHeader = "X-Router-Cache"

// genTable tracks which model version is current per estimator, so a live
// read can be keyed at it without a node round trip. A version names one
// model on every node (server.Entry.Version), and every read-cache key
// carries the version of the model that answered (server.AppendKeyPrefix),
// which makes the rule exact:
//
//   - a routed write fences its dataset at the version its response
//     reports (IngestResult.Generation): the floor, below which no answer
//     holds every write the router proxied; a write whose response was cut
//     off fences above every version seen of the dataset, as one that
//     published the next version;
//   - a live response at version v is cached, under v, only when v is at
//     least its dataset's floor and is the newest version seen of its
//     estimator (a lagging replica's answer is relayed, not cached);
//   - a live read looks up the version the table calls current, and misses
//     when none is — so once a write lands, an entry of an older version,
//     even one stored by a request racing the write, is never read again.
//
// Writes that bypass the router are invisible to it (same contract as
// /sync/notify: the router is the write path). Versioned reads never
// consult the table — retained versions are immutable — and no entry is
// ever dropped for freshness: an older version's answers stay reachable by
// a ?version= read of that version until the LRU evicts them.
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
// at that version may be cached. The caller stores after observe returns:
// an answer stored late under a version that is no longer current is
// reachable only by a ?version= read of that version, whose answer it is.
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

// fenceAbove fences dataset for a routed write that may have published a
// version the router cannot know: the floor rises above the floor and the
// newest version seen of every estimator of the dataset, so no live read is
// served from the cache until a node answers at a newer version.
func (t *genTable) fenceAbove(dataset string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	gen := t.floor[dataset]
	for name, v := range t.newest {
		if d, _, _ := strings.Cut(name, "/"); d == dataset {
			gen = max(gen, v)
		}
	}
	t.floor[dataset] = gen + 1
}
