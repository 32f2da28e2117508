package server

import (
	"container/list"
	"hash/maphash"
	"runtime"
	"strings"
	"sync"
)

// Cache is a bounded LRU result cache, hash-sharded so concurrent workers
// never contend on a single mutex: keys are distributed over P =
// GOMAXPROCS (rounded up to a power of two) independent LRU shards, each
// with its own lock, capacity slice, and hit/miss accounting. Keys are
// the canonical query strings of the server (estimator name + version
// + query kind + predicate CanonicalKey), so two requests hit the same
// entry iff the estimator would compute the identical answer — and
// because a key always lands on the same shard, the single-shard LRU
// semantics (recency, eviction, refresh) are preserved per key. Values
// are stored as returned — callers must not mutate cached group slices.
type Cache struct {
	shards []*cacheShard
	mask   uint64
	seed   maphash.Seed
}

// cacheShard is one independently locked LRU.
type cacheShard struct {
	mu           sync.Mutex
	capacity     int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses uint64
	evictions    uint64
}

type cacheEntry struct {
	key string
	val interface{}
}

// NewCache returns an LRU cache bounded to capacity entries in total,
// sharded GOMAXPROCS-wide. A capacity <= 0 disables caching: Get always
// misses and Put is a no-op.
func NewCache(capacity int) *Cache {
	return newCacheSharded(capacity, runtime.GOMAXPROCS(0))
}

// newCacheSharded is NewCache with an explicit shard count (rounded up to
// a power of two), for tests. The total capacity is divided
// evenly across shards, each shard receiving at least one entry.
func newCacheSharded(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	p := 1
	for p < shards {
		p <<= 1
	}
	c := &Cache{
		shards: make([]*cacheShard, p),
		mask:   uint64(p - 1),
		seed:   maphash.MakeSeed(),
	}
	per := 0
	if capacity > 0 {
		per = (capacity + p - 1) / p
		if per < 1 {
			per = 1
		}
	} else {
		per = capacity // <= 0 disables every shard
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			capacity: per,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
		}
	}
	return c
}

// Lookup returns the cached value for key and marks it most recently used in
// its shard. The key is bytes because that is how the read paths build it —
// appended into one reused buffer — and neither the hash nor the map lookup
// needs a string: a hit allocates nothing, and only a miss that goes on to
// Put ever materialises one.
func (c *Cache) Lookup(key []byte) (interface{}, bool) {
	return get(c.shards[maphash.Bytes(c.seed, key)&c.mask], key)
}

// Get is Lookup for a caller that holds the key as a string.
func (c *Cache) Get(key string) (interface{}, bool) {
	return get(c.shards[maphash.String(c.seed, key)&c.mask], key)
}

// get is the one lookup under both forms of a key; the conversion inside a
// map index copies nothing.
func get[K string | []byte](s *cacheShard, key K) (interface{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts (or refreshes) the value under key, evicting the least
// recently used entry of the key's shard when that shard is full.
func (c *Cache) Put(key string, val interface{}) {
	s := c.shards[maphash.String(c.seed, key)&c.mask]
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// InvalidatePrefix removes every entry whose key starts with prefix and
// returns how many were dropped, fanning out across all shards (a prefix
// spans shards — only full keys hash to a home). Nothing in the serving
// path calls it: every key names the version that answered, so a swap
// leaves nothing stale to drop, and an older version's entries age out of
// the LRU. Kept only because the frozen bench/ module calls it.
func (c *Cache) InvalidatePrefix(prefix string) int {
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for key, el := range s.items {
			if strings.HasPrefix(key, prefix) {
				s.ll.Remove(el)
				delete(s.items, key)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// CacheShardStats is the per-shard accounting on /metrics; it shows how
// evenly keys spread and whether any one shard's lock is hot.
type CacheShardStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// CacheStats is the accounting snapshot exposed on /metrics: totals
// aggregated across shards plus the per-shard breakdown.
type CacheStats struct {
	Capacity  int     `json:"capacity"`
	Entries   int     `json:"entries"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
	// Shards is the per-shard breakdown, index = shard number.
	Shards []CacheShardStats `json:"shards,omitempty"`
}

// Stats returns a snapshot of the cache counters. Each shard is
// snapshotted under its own lock; the aggregate is consistent per shard
// (not across shards, which concurrent traffic makes meaningless anyway).
func (c *Cache) Stats() CacheStats {
	out := CacheStats{Shards: make([]CacheShardStats, len(c.shards))}
	disabled := false
	for i, s := range c.shards {
		s.mu.Lock()
		ss := CacheShardStats{
			Entries:   s.ll.Len(),
			Hits:      s.hits,
			Misses:    s.misses,
			Evictions: s.evictions,
		}
		if s.capacity > 0 {
			out.Capacity += s.capacity
		} else {
			disabled = true
		}
		s.mu.Unlock()
		out.Shards[i] = ss
		out.Entries += ss.Entries
		out.Hits += ss.Hits
		out.Misses += ss.Misses
		out.Evictions += ss.Evictions
	}
	if disabled {
		out.Capacity = c.shards[0].capacity // preserve the disabled marker
		out.Shards = nil
	}
	if total := out.Hits + out.Misses; total > 0 {
		out.HitRatio = float64(out.Hits) / float64(total)
	}
	return out
}
