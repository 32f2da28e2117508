package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// RouterCacheHeader marks a routed read that was answered entirely from
// the router's cache (value "hit"): no node round trip happened. Misses
// and partially cached batches carry no header — the response reached at
// least one node.
const RouterCacheHeader = "X-Router-Cache"

// routerQueryKey is the cache key of one routed read: the router's own
// freshness prefix, then the item identity the node keys by too
// (query.BatchItem.AppendIdentity). The prefix differs from the node's
// deliberately: the router cannot know an estimator's generation before
// asking a node, so live reads key on an "l" marker and the generation
// travels in the cached value instead, checked against the generation table
// at serve time. Snapshot reads (version > 0) key on the version — those
// answers are immutable.
func routerQueryKey(estimator string, version int, it query.BatchItem) string {
	var b strings.Builder
	b.Grow(len(estimator) + 24)
	b.WriteString(estimator)
	if version > 0 {
		b.WriteString("\x00s")
		b.WriteString(strconv.Itoa(version))
	} else {
		b.WriteString("\x00l")
	}
	b.WriteByte(0)
	it.AppendIdentity(&b)
	return b.String()
}

// cachedRead is one stored answer. Responses are synthesized from these
// fields on a hit — never replayed raw — so a hit is byte-equivalent to
// what the node would have sent (float64 counts survive Go's JSON
// round-trip exactly) while carrying honest Cached/latency metadata.
type cachedRead struct {
	gen       uint64 // answering node's generation (0 for snapshot reads)
	estimator string // canonical name echoed by the node
	version   int    // snapshot version echo (0 = live)
	isGroup   bool
	count     float64
	groups    []query.GroupRow
}

// toBatchAnswer converts a stored read into the batch wire shape.
func (e cachedRead) toBatchAnswer() query.BatchAnswer {
	return query.BatchAnswer{Cached: true, IsGroup: e.isGroup, Count: e.count, Groups: e.groups}
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
//     replica's pre-write answer) — only a strictly newer one is cached.
//
// Writes that bypass the router are invisible to it (same contract as
// /sync/notify: the router is the write path). Snapshot reads never
// consult the table — retained versions are immutable.
type genTable struct {
	mu sync.Mutex
	m  map[string]*genState
	// fenced remembers datasets a routed write has fenced, so estimators
	// first observed AFTER the write start behind a floor too; all is the
	// same flag for a fence of everything (unparseable write path).
	fenced map[string]bool
	all    bool
}

func newGenTable() *genTable {
	return &genTable{m: make(map[string]*genState), fenced: make(map[string]bool)}
}

// fencedLocked reports whether any past fence covers the estimator name.
// Callers hold t.mu.
func (t *genTable) fencedLocked(name string) bool {
	if t.all {
		return true
	}
	for d := range t.fenced {
		if name == d || strings.HasPrefix(name, d+"/") {
			return true
		}
	}
	return false
}

// observe records a node response's generation and reports whether an
// answer at that generation may be cached: it must not predate the last
// routed write, and it must be the newest generation seen.
func (t *genTable) observe(name string, gen uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[name]
	if st == nil {
		st = &genState{}
		if t.fencedLocked(name) {
			// A routed write predates every observation of this estimator:
			// this answer cannot be proven post-write, so refuse it and
			// admit only a strictly newer generation.
			st.floor = gen + 1
		}
		t.m[name] = st
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
// be cached until a strictly newer generation is observed. An empty
// dataset fences everything. The dataset is also remembered so estimators
// first observed after the write start fenced too (see observe).
func (t *genTable) fence(dataset string) {
	prefix := dataset + "/"
	t.mu.Lock()
	defer t.mu.Unlock()
	if dataset == "" {
		t.all = true
	} else {
		t.fenced[dataset] = true
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

// --- the router's cached read path ------------------------------------

// readRequest is the cache identity of one decoded single read (/query
// or /groupby POST) the router may answer from its cache.
type readRequest struct {
	estimator string
	version   int // resolved snapshot version (0 = live)
	isGroup   bool
	key       string
}

func newReadRequest(read server.ReadRequest) readRequest {
	it := read.Items[0]
	return readRequest{
		estimator: read.Estimator,
		version:   read.Version,
		isGroup:   len(it.GroupBy) > 0,
		key:       routerQueryKey(read.Estimator, read.Version, it),
	}
}

// serveRead answers a parsed read from the cache when it can, otherwise
// forwards it — collapsing concurrent identical misses into one node
// round trip. The leader of a miss forwards, relays, and caches; its
// followers wait and answer from the leader's entry.
func (rt *Router) serveRead(w http.ResponseWriter, r *http.Request, body []byte, req readRequest) {
	start := rt.opts.Now()
	if e, ok := rt.cacheLookup(req); ok {
		writeCachedRead(w, e, rt.opts.Now().Sub(start))
		return
	}
	fl, leader := rt.flights.join(req.key)
	if !leader {
		select {
		case <-fl.done:
		case <-r.Context().Done():
			// The CLIENT went away (disconnect or its own timeout), not the
			// upstream: write nothing rather than misreport a gateway error.
			return
		}
		// Re-verify at serve time, exactly like a cache hit: a routed write
		// may have fenced the estimator between the leader storing the
		// entry and this follower waking.
		if fl.ok && rt.entryCurrent(req, fl.entry) {
			rt.collapsed.Add(1)
			writeCachedRead(w, fl.entry, rt.opts.Now().Sub(start))
			return
		}
		// The leader's response was not cacheable (error, node behind) or
		// was fenced while we waited; this read speaks to a node itself.
		rt.forward(w, r, body, -1)
		return
	}
	var entry cachedRead
	var stored bool
	// leave via defer: followers must be released even if the relay
	// panics mid-flight.
	defer func() { rt.flights.leave(req.key, fl, entry, stored) }()
	entry, stored = rt.forwardCapture(w, r, body, req)
}

// entryCurrent reports whether a stored answer may be served for req
// right now: snapshot reads are immutable, live reads must carry the
// exact generation the table vouches for at this instant.
func (rt *Router) entryCurrent(req readRequest, e cachedRead) bool {
	if req.version > 0 {
		return true
	}
	gen, ok := rt.gens.current(req.estimator)
	return ok && e.gen == gen
}

// cacheLookup returns the cached answer for req when it is provably
// current under entryCurrent.
func (rt *Router) cacheLookup(req readRequest) (cachedRead, bool) {
	v, ok := rt.cache.Get(req.key)
	if !ok {
		return cachedRead{}, false
	}
	e := v.(cachedRead)
	if !rt.entryCurrent(req, e) {
		return cachedRead{}, false
	}
	return e, true
}

// forwardCapture proxies the read like forward, relays the node response
// to the client unchanged, and — on a 200 — parses and caches it under
// the generation rules. It returns the stored entry for singleflight
// followers. A response body larger than MaxBodyBytes is streamed to the
// client whole and never cached: the cap bounds what the router buffers,
// not what the client may receive.
func (rt *Router) forwardCapture(w http.ResponseWriter, r *http.Request, body []byte, req readRequest) (cachedRead, bool) {
	resp, n, herr := rt.roundTrip(r.Context(), r.Method, requestPath(r), r.Header, body, -1)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return cachedRead{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		relayResponse(w, resp, n)
		return cachedRead{}, false
	}
	// Read one byte past the cap so an exactly-full buffer is
	// distinguishable from a truncated one.
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, rt.opts.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return cachedRead{}, false
	}
	if int64(len(respBody)) > rt.opts.MaxBodyBytes {
		relayHeaders(w, resp, n)
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(respBody)
		_, _ = io.Copy(w, resp.Body)
		return cachedRead{}, false
	}
	relayBytes(w, resp, n, respBody)
	return rt.captureRead(req, resp.Header, respBody)
}

// captureRead parses a node's 200 response and stores it when admissible:
// snapshot answers always (immutable), live answers only when the node's
// generation passes the table (not behind a routed write, newest seen).
func (rt *Router) captureRead(req readRequest, header http.Header, body []byte) (cachedRead, bool) {
	gen := uint64(0)
	if req.version == 0 {
		raw := header.Get(server.EstimatorGenerationHeader)
		if raw == "" {
			return cachedRead{}, false // node did not vouch for a live generation
		}
		g, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return cachedRead{}, false
		}
		if !rt.gens.observe(req.estimator, g) {
			rt.staleSkips.Add(1)
			return cachedRead{}, false
		}
		gen = g
	}
	e := cachedRead{gen: gen}
	if req.isGroup {
		var gr server.GroupByResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			return cachedRead{}, false
		}
		e.estimator, e.version, e.isGroup, e.groups = gr.Estimator, gr.Version, true, gr.Groups
	} else {
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return cachedRead{}, false
		}
		e.estimator, e.version, e.count = qr.Estimator, qr.Version, qr.Count
	}
	rt.cache.Put(req.key, e)
	return e, true
}

// writeCachedRead synthesizes a node-shaped response from a cached entry.
// The answer fields round-trip bit-identically (Go prints a float64 it
// parsed back to the same shortest form); Cached and the latency are
// honest — they describe this serve, not the original one.
func writeCachedRead(w http.ResponseWriter, e cachedRead, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(RouterCacheHeader, "hit")
	if e.gen > 0 {
		w.Header().Set(server.EstimatorGenerationHeader, strconv.FormatUint(e.gen, 10))
	}
	if e.isGroup {
		_ = json.NewEncoder(w).Encode(server.GroupByResponse{
			Estimator: e.estimator, Version: e.version, Groups: e.groups,
			Cached: true, LatencyNS: elapsed.Nanoseconds(),
		})
		return
	}
	_ = json.NewEncoder(w).Encode(server.QueryResponse{
		Estimator: e.estimator, Version: e.version, Count: e.count,
		Cached: true, LatencyNS: elapsed.Nanoseconds(),
	})
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
