package server

import (
	"fmt"
	"sync"
	"testing"
)

// The LRU-semantics tests pin the shard count to 1: recency and eviction
// order are per-shard properties, and a single shard makes them exact.

func TestCacheLRUEviction(t *testing.T) {
	c := newCacheSharded(2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Fatalf("c = %v, %v; want 3, true", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries, capacity 2", st)
	}
}

func TestCacheAccounting(t *testing.T) {
	c := newCacheSharded(8, 1)
	c.Put("k", 1.5)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("expected hit")
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("expected miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.HitRatio != 0.5 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, ratio 0.5", st)
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := newCacheSharded(2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh value and recency
	c.Put("c", 3)  // evicts b, not a
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("a = %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must always miss")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 0 entries, 1 miss", st)
	}
}

// TestCacheSharding asserts keys spread across shards, per-shard stats sum
// to the aggregate, and a key always finds its own entry regardless of
// which shard it landed on.
func TestCacheSharding(t *testing.T) {
	c := newCacheSharded(1024, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	const n = 512
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%04d", i), i)
	}
	for i := 0; i < n; i++ {
		v, ok := c.Get(fmt.Sprintf("key-%04d", i))
		if !ok || v.(int) != i {
			t.Fatalf("key-%04d = %v, %v; want %d, true", i, v, ok, i)
		}
	}
	st := c.Stats()
	if st.Entries != n || st.Hits != n {
		t.Fatalf("stats = %+v; want %d entries and hits", st, n)
	}
	if len(st.Shards) != 8 {
		t.Fatalf("%d shard stats, want 8", len(st.Shards))
	}
	populated, sumEntries, sumHits := 0, 0, uint64(0)
	for _, ss := range st.Shards {
		if ss.Entries > 0 {
			populated++
		}
		sumEntries += ss.Entries
		sumHits += ss.Hits
	}
	if sumEntries != st.Entries || sumHits != st.Hits {
		t.Fatalf("shard sums (%d entries, %d hits) disagree with totals (%d, %d)",
			sumEntries, sumHits, st.Entries, st.Hits)
	}
	// 512 hashed keys over 8 shards leaving shards empty would mean a
	// broken hash.
	if populated < 2 {
		t.Fatalf("only %d shard(s) populated by %d keys", populated, n)
	}
}

// TestCacheInvalidatePrefixFansOut inserts keys sharing a prefix (which
// hash to different shards) and asserts InvalidatePrefix reclaims every
// one of them while leaving other prefixes alone.
func TestCacheInvalidatePrefixFansOut(t *testing.T) {
	c := newCacheSharded(1024, 4)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("demo/maxent\x00v1\x00c%d", i), i)
		c.Put(fmt.Sprintf("demo/exact\x00v1\x00c%d", i), i)
	}
	dropped := c.InvalidatePrefix("demo/maxent\x00")
	if dropped != 64 {
		t.Fatalf("dropped %d, want 64", dropped)
	}
	for i := 0; i < 64; i++ {
		if _, ok := c.Get(fmt.Sprintf("demo/maxent\x00v1\x00c%d", i)); ok {
			t.Fatalf("invalidated key %d still present", i)
		}
		if _, ok := c.Get(fmt.Sprintf("demo/exact\x00v1\x00c%d", i)); !ok {
			t.Fatalf("unrelated key %d was dropped", i)
		}
	}
	if st := c.Stats(); st.Invalidations != 64 {
		t.Fatalf("invalidations = %d, want 64", st.Invalidations)
	}
}

// TestCacheConcurrent hammers all operations from many goroutines; run
// under -race it proves the sharded locking is sound.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%128)
				c.Put(key, i)
				c.Get(key)
				if i%100 == 0 {
					c.InvalidatePrefix("k1")
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheLookupMatchesGet pins the two key forms to one entry — the same
// shard, the same map slot — and a hit under either to zero allocations,
// at a key longer than any the runtime could convert on the stack.
func TestCacheLookupMatchesGet(t *testing.T) {
	c := newCacheSharded(64, 8)
	key := "demo/maxent\x00v12\x00c\x00#5|0r3:3|1r10:40|4s1,2,3,5,8,13,21"
	c.Put(key, 1.5)
	if v, ok := c.Lookup([]byte(key)); !ok || v.(float64) != 1.5 {
		t.Fatalf("Lookup(bytes) = %v, %v after Put(string)", v, ok)
	}
	if _, ok := c.Lookup([]byte(key + "x")); ok {
		t.Fatal("Lookup hit a key never stored")
	}
	kb := []byte(key)
	if n := testing.AllocsPerRun(100, func() { c.Lookup(kb); c.Get(key) }); n != 0 {
		t.Fatalf("a hit allocated %.0f times", n)
	}
}
