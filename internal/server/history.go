package server

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/polynomial"
	"repro/internal/store"
)

// historyRestoreWindow is how many recent restore latencies the history
// cache retains for its p50/max report.
const historyRestoreWindow = 256

// histKey identifies one historical estimator: a store dataset key
// ("<dataset>/<strategy>") at one snapshot version.
type histKey struct {
	dataset string
	version int
}

// histEntry is one resident historical estimator: its own heap, and the
// polynomial structure it shares with other models.
type histEntry struct {
	key       histKey
	ent       Entry
	bytes     int64
	structure *polynomial.Compressed
}

// heapSizer is an estimator that reports the heap it holds: its own part,
// and a polynomial structure that every resident model of the same
// structure shares. Every estimator the store loads is one
// (summary.Summary).
type heapSizer interface {
	HeapBytes() (own int64, structure *polynomial.Compressed)
}

// History is the lazily-populated LRU cache of historical estimators
// behind time-travel queries (/query?version=N): a cold
// version restores from the snapshot store on first hit (≈1 ms at the
// repository benchmark's 10k-term shape when a model of the same structure
// is resident — the served generation, or another version — and ≈5 ms when
// the decode must build the structure) and stays resident until the byte
// budget pushes it out. The budget counts what the versions hold in
// memory: each entry's own heap (its solved system and caches), plus each
// polynomial structure once while any resident entry shares it. A resident
// version answers from memory, so a prune of its file changes nothing it
// serves; once evicted, the version restores again or is gone (404).
type History struct {
	st       *store.Store
	maxBytes int64
	now      func() time.Time

	mu      sync.Mutex
	entries map[histKey]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	// shared counts the resident entries using each polynomial structure,
	// which is charged to bytes once while any of them is resident.
	shared    map[*polynomial.Compressed]int
	hits      uint64
	misses    uint64
	evictions uint64
	// restoreNS is a ring of the most recent first-hit restore latencies.
	restoreNS  [historyRestoreWindow]int64
	restorePos int
	restores   uint64
}

// defaultHistoryBytes is the history cache's default budget: about 75
// versions of the repository benchmark's 10k-term model, which share one
// ~2 MB structure and hold ~0.8 MB each of their own.
const defaultHistoryBytes = 64 << 20

// NewHistory builds a history cache over the store. maxBytes bounds the
// heap the resident estimators hold (<= 0 selects defaultHistoryBytes);
// the most recently restored version is always admitted, even alone over
// budget. now overrides the clock for tests (nil = time.Now).
func NewHistory(st *store.Store, maxBytes int64, now func() time.Time) *History {
	if maxBytes <= 0 {
		maxBytes = defaultHistoryBytes
	}
	if now == nil {
		now = time.Now
	}
	return &History{
		st:       st,
		maxBytes: maxBytes,
		now:      now,
		entries:  make(map[histKey]*list.Element),
		lru:      list.New(),
		shared:   make(map[*polynomial.Compressed]int),
	}
}

// Get returns the estimator serving the dataset key at the given snapshot
// version (> 0), restoring it from the store on first hit. The returned
// Entry carries that version, the one the live entry carries while it
// serves the same snapshot, so both key the same cached answers. Store
// errors (store.ErrNotFound, store.ErrCorrupt) pass through for the
// caller to map onto HTTP statuses.
func (h *History) Get(dataset string, version int) (Entry, error) {
	if version <= 0 {
		return Entry{}, fmt.Errorf("server: history lookup needs a version > 0, got %d", version)
	}
	key := histKey{dataset: dataset, version: version}
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.entries[key]; ok {
		h.lru.MoveToFront(el)
		h.hits++
		return el.Value.(*histEntry).ent, nil
	}
	// Restore under the lock: concurrent first hits on the same version
	// would otherwise race N restores for one cache slot, and a restore is
	// O(summary bytes) — far cheaper than the duplicated work it prevents.
	h.misses++
	start := h.now()
	est, _, err := h.st.Load(dataset, version)
	if err != nil {
		return Entry{}, err
	}
	elapsed := h.now().Sub(start).Nanoseconds()
	h.restoreNS[h.restorePos] = elapsed
	h.restorePos = (h.restorePos + 1) % historyRestoreWindow
	h.restores++

	sc, ok := est.(schemed)
	if !ok {
		return Entry{}, fmt.Errorf("server: snapshot %q v%d: estimator %T carries no schema", dataset, version, est)
	}
	ent := Entry{Name: dataset, Estimator: est, Schema: sc.Schema(), Version: version}
	he := &histEntry{key: key, ent: ent}
	he.bytes, he.structure = est.(heapSizer).HeapBytes()
	h.entries[key] = h.lru.PushFront(he)
	h.bytes += he.bytes
	if h.shared[he.structure] == 0 {
		h.bytes += he.structure.HeapBytes()
	}
	h.shared[he.structure]++
	for h.bytes > h.maxBytes && h.lru.Len() > 1 {
		h.evictLocked(h.lru.Back())
	}
	return ent, nil
}

// evictLocked removes one entry. Callers hold h.mu.
func (h *History) evictLocked(el *list.Element) {
	he := el.Value.(*histEntry)
	h.lru.Remove(el)
	delete(h.entries, he.key)
	h.bytes -= he.bytes
	if h.shared[he.structure]--; h.shared[he.structure] == 0 {
		delete(h.shared, he.structure)
		h.bytes -= he.structure.HeapBytes()
	}
	h.evictions++
}

// HistoryStats is the /metrics block of the historical-estimator cache.
type HistoryStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// RestoreP50NS and RestoreMaxNS summarize the most recent first-hit
	// restore latencies (up to historyRestoreWindow of them); 0 until the
	// first restore.
	RestoreP50NS int64 `json:"restore_p50_ns"`
	RestoreMaxNS int64 `json:"restore_max_ns"`
}

// Stats returns a consistent snapshot of the cache counters.
func (h *History) Stats() HistoryStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistoryStats{
		Entries:   h.lru.Len(),
		Bytes:     h.bytes,
		MaxBytes:  h.maxBytes,
		Hits:      h.hits,
		Misses:    h.misses,
		Evictions: h.evictions,
	}
	n := int(h.restores)
	if n > historyRestoreWindow {
		n = historyRestoreWindow
	}
	if n > 0 {
		lat := make([]int64, n)
		copy(lat, h.restoreNS[:n])
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.RestoreP50NS = lat[(n-1)/2]
		st.RestoreMaxNS = lat[n-1]
	}
	return st
}
