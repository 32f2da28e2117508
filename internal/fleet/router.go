package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// NodeConfig names one summaryd node of the fleet. The first node of a
// router's list is the primary: the only node holding the mutable
// relations, so writes (/ingest) always land there while
// reads spread across every healthy replica.
type NodeConfig struct {
	Name string
	URL  string
}

// Options configure a Router. The zero value selects the defaults noted
// per field.
type Options struct {
	// Timeout bounds each proxied attempt (default 10s).
	Timeout time.Duration
	// Retries bounds how many additional attempts a retryable request
	// gets after its first (default: one per remaining node).
	Retries int
	// RetryBackoff is the pause before the first retry, doubled per
	// subsequent retry (default 10ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// node's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds traffic before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// MaxBodyBytes bounds proxied request bodies (default 1 MiB) — the
	// router buffers bodies so retries can resend them.
	MaxBodyBytes int64
	// CacheSize bounds the router's read cache in entries (default 4096;
	// < 0 disables router-side caching). Warm reads are then answered on
	// the router without a node round trip, kept provably fresh by the
	// generation fencing described on genTable.
	CacheSize int
	// Client overrides the HTTP client used for proxying (default: a
	// dedicated client; the per-attempt timeout comes from Timeout).
	Client *http.Client
	// Now overrides the wall clock, for tests (default time.Now).
	Now func() time.Time
}

func (o *Options) setDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
}

// node is one summaryd replica with its runtime routing state.
type node struct {
	name     string
	url      string
	breaker  *breaker
	inflight atomic.Int64
	proxied  atomic.Uint64
	failures atomic.Uint64
}

// Router is the fleet coordinator: it proxies the summaryd serving
// surface across a replica set with health-aware, load-aware node
// selection, retry-with-backoff on replica failure, and per-node circuit
// breaking. Reads go to the least-loaded healthy node; writes go to the
// primary and fan a sync notification out to the replicas, so an ingest
// on one node propagates fleet-wide without re-solving.
type Router struct {
	nodes  []*node
	opts   Options
	mux    *http.ServeMux
	routes []string
	start  time.Time

	// Read-cache state (both nil when Options.CacheSize < 0): answers and
	// the per-estimator generation table proving them fresh.
	cache *server.Cache
	gens  *genTable

	rr         atomic.Uint64
	requests   atomic.Uint64
	retries    atomic.Uint64
	notifies   atomic.Uint64
	exhausted  atomic.Uint64
	staleSkips atomic.Uint64
}

// NewRouter builds a router over the replica set. The first node is the
// primary (write target); at least one node is required.
func NewRouter(nodes []NodeConfig, opts Options) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("fleet: a router needs at least one node")
	}
	opts.setDefaults()
	if opts.Retries <= 0 {
		opts.Retries = len(nodes) - 1
		if opts.Retries < 1 {
			opts.Retries = 1
		}
	}
	rt := &Router{opts: opts, start: opts.Now()}
	if opts.CacheSize > 0 {
		rt.cache = server.NewCache(opts.CacheSize)
		rt.gens = newGenTable()
	}
	seen := make(map[string]bool, len(nodes))
	for i, nc := range nodes {
		if nc.URL == "" {
			return nil, fmt.Errorf("fleet: node %d has no URL", i)
		}
		name := nc.Name
		if name == "" {
			name = fmt.Sprintf("node%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate node name %q", name)
		}
		seen[name] = true
		rt.nodes = append(rt.nodes, &node{
			name:    name,
			url:     strings.TrimRight(nc.URL, "/"),
			breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Now),
		})
	}
	rt.mux = http.NewServeMux()
	rt.handle("/query", rt.handleQuery)
	rt.handle("/groupby", rt.handleGroupBy)
	rt.handle("/query/batch", rt.handleBatch)
	rt.handle("/estimators", rt.handleRead)
	rt.handle("/snapshots", rt.handleRead)
	rt.handle("/ingest/", rt.handleWrite)
	rt.handle("/healthz", rt.handleHealthz)
	rt.handle("/metrics", rt.handleMetrics)
	return rt, nil
}

func (rt *Router) handle(pattern string, fn http.HandlerFunc) {
	rt.mux.HandleFunc(pattern, fn)
	rt.routes = append(rt.routes, pattern)
}

// Routes returns every route pattern the router serves, sorted — the
// inventory the documentation lint gate checks docs/API.md against,
// exactly like server.Routes().
func (rt *Router) Routes() []string {
	out := append([]string(nil), rt.routes...)
	sort.Strings(out)
	return out
}

// Handler returns the HTTP handler serving the router surface.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.requests.Add(1)
		rt.mux.ServeHTTP(w, r)
	})
}

// --- node selection ---------------------------------------------------

// pick chooses the node for one attempt: among the nodes not in tried whose
// breaker is ready, the least in-flight load first, round-robin rotation
// breaking ties. prefer (>= 0) pins a preferred node to the front when its
// breaker is ready, which the proxied reads use to ask the primary first. The
// scan has no side effects; only the chosen node's breaker is asked to admit
// the request, so a half-open probe is spent on the node that is actually
// sent to — and when a concurrent pick won that probe first, the choice is
// made again without the node.
func (rt *Router) pick(tried map[*node]bool, prefer int) *node {
	rot := int(rt.rr.Add(1))
	var lost []*node // ready when scanned, but another pick took the probe
	for {
		var best *node
		var bestLoad int64
		var bestPos int
		for i, n := range rt.nodes {
			if tried[n] || slices.Contains(lost, n) || !n.breaker.Ready() {
				continue
			}
			if prefer >= 0 && i == prefer%len(rt.nodes) {
				best = n
				break
			}
			load, pos := n.inflight.Load(), (i+rot)%len(rt.nodes)
			if best == nil || load < bestLoad || (load == bestLoad && pos < bestPos) {
				best, bestLoad, bestPos = n, load, pos
			}
		}
		if best == nil || best.breaker.Allow() {
			return best
		}
		lost = append(lost, best)
	}
}

// --- proxy core -------------------------------------------------------

// retryableStatus reports whether a response status marks the node (not
// the request) as the problem: upstream gateway failures and saturation.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// attempt sends one proxied request to one node and returns the response.
// The caller owns breaker/metric accounting via the returned error class.
func (rt *Router) attempt(ctx context.Context, n *node, method, pathAndQuery string, header http.Header, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
	req, err := http.NewRequestWithContext(ctx, method, n.url+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	if v := header.Get("Content-Type"); v != "" {
		req.Header.Set("Content-Type", v)
	}
	n.inflight.Add(1)
	resp, err := rt.opts.Client.Do(req)
	n.inflight.Add(-1)
	if err != nil {
		cancel()
		return nil, err
	}
	// Tie the context cancel to the body: the caller drains or closes it.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// forward proxies a request across the replica set with retry-with-
// backoff: transport errors and 502/503/504 move on to the next healthy
// node; a 404 is treated as a soft miss (another node may serve an
// estimator this one does not replicate) and retried without penalizing
// the breaker, with the first 404 replayed if every node misses. Any
// other response is relayed as-is. prefer pins the first attempt to a
// node index (-1 = load-based).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, prefer int) {
	resp, n, herr := rt.roundTrip(r.Context(), r.Method, requestPath(r), r.Header, body, prefer)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return
	}
	defer resp.Body.Close()
	relayResponse(w, resp, n)
}

// roundTrip is forward without the ResponseWriter: it returns the first
// relayable response and the node that served it.
func (rt *Router) roundTrip(ctx context.Context, method, pathAndQuery string, header http.Header, body []byte, prefer int) (*http.Response, *node, *routeError) {
	tried := make(map[*node]bool, len(rt.nodes))
	var miss *http.Response
	var missNode *node
	var lastErr error
	attempts := rt.opts.Retries + 1
	for i := 0; i < attempts; i++ {
		n := rt.pick(tried, prefer)
		prefer = -1
		if n == nil {
			break
		}
		tried[n] = true
		if i > 0 {
			rt.retries.Add(1)
			backoff(ctx, rt.opts.RetryBackoff<<(i-1))
		}
		resp, err := rt.attempt(ctx, n, method, pathAndQuery, header, body)
		if err != nil {
			n.breaker.Failure()
			n.failures.Add(1)
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			n.breaker.Failure()
			n.failures.Add(1)
			lastErr = fmt.Errorf("%s answered %d", n.name, resp.StatusCode)
			drain(resp)
			continue
		}
		n.breaker.Success()
		if resp.StatusCode == http.StatusNotFound && miss == nil && len(tried) < len(rt.nodes) {
			// Soft miss: hold the 404 and ask a node that may replicate
			// the estimator this one lacks.
			miss, missNode = resp, n
			continue
		}
		if miss != nil {
			drain(miss)
		}
		n.proxied.Add(1)
		return resp, n, nil
	}
	if miss != nil {
		missNode.proxied.Add(1)
		return miss, missNode, nil
	}
	rt.exhausted.Add(1)
	msg := "no healthy replica"
	if lastErr != nil {
		msg = fmt.Sprintf("no healthy replica: last error: %v", lastErr)
	}
	return nil, nil, &routeError{status: http.StatusBadGateway, msg: msg}
}

type routeError struct {
	status int
	msg    string
}

func requestPath(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

func relayResponse(w http.ResponseWriter, resp *http.Response, n *node) {
	for _, k := range []string{"Content-Type", server.EstimatorGenerationHeader,
		server.SnapshotVersionHeader, server.SnapshotChecksumHeader, server.SnapshotEstimatorHeader} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set(FleetNodeHeader, n.name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// FleetNodeHeader names the node that served a routed response.
const FleetNodeHeader = "X-Fleet-Node"

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// backoff sleeps for d or until ctx is done.
func backoff(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return body, true
}

// --- read/write handlers ----------------------------------------------

// handleRead proxies a read-only endpoint with retry, preferring the
// primary (which registers estimators replicas may not).
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	rt.forward(w, r, body, 0)
}

// handleWrite proxies an ingest to the primary, exactly once, whatever the
// method (the node answers 405 to anything but POST): an ingest is not
// idempotent, so the router never retries it — a failure is the client's
// to handle. An accepted ingest fences its dataset's cached reads at the
// version its response reports (genTable). One whose response reports a
// refresh published a new snapshot version, so it triggers a sync
// notification to every replica and the fleet converges within one round
// trip instead of one poll interval. A response cut off mid-body is a 502
// after which the router asks the primary which version it serves and
// fences the dataset there, as the whole response would have; when the
// primary cannot say, the write is handled as a refresh at a version the
// router cannot know: the dataset is fenced above every version seen of it.
// Either way the replicas are notified.
// No cached entry is dropped: every key names the version that answered.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	primary := rt.nodes[0]
	resp, err := rt.attempt(r.Context(), primary, r.Method, requestPath(r), r.Header, body)
	if err != nil {
		primary.breaker.Failure()
		primary.failures.Add(1)
		writeError(w, http.StatusBadGateway, fmt.Sprintf("primary %s: %v", primary.name, err))
		return
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		primary.breaker.Failure()
		primary.failures.Add(1)
	} else {
		primary.breaker.Success()
		primary.proxied.Add(1)
	}

	// Relay the response whole — MaxBodyBytes bounds request bodies only —
	// keeping the copy that says whether the ingest refreshed.
	bodyCopy, err := io.ReadAll(resp.Body)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("primary %s: reading its response: %v; the write may have been applied", primary.name, err))
		dataset := strings.TrimPrefix(r.URL.Path, "/ingest/")
		if rt.cache != nil {
			if gen, ok := rt.primaryGeneration(r.Context(), dataset); ok {
				rt.gens.fence(dataset, gen)
			} else {
				rt.gens.fenceAbove(dataset)
			}
		}
		rt.notifyReplicas(r.Context(), dataset)
		return
	}
	if v := resp.Header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	w.Header().Set(FleetNodeHeader, primary.name)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(bodyCopy)
	var res server.IngestResult
	if resp.StatusCode != http.StatusOK || json.Unmarshal(bodyCopy, &res) != nil {
		return
	}
	if rt.cache != nil {
		rt.gens.fence(res.Dataset, res.Generation)
	}
	if res.Refreshed {
		rt.notifyReplicas(r.Context(), res.Dataset)
	}
}

// primaryGeneration asks the primary (GET /estimators) for the newest
// version it serves of dataset's estimators, the generation a write's
// response reports; ok is false when the primary cannot say.
func (rt *Router) primaryGeneration(ctx context.Context, dataset string) (gen uint64, ok bool) {
	resp, err := rt.attempt(ctx, rt.nodes[0], http.MethodGet, "/estimators", nil, nil)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var list server.EstimatorsResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&list) != nil {
		return 0, false
	}
	for _, e := range list.Estimators {
		if d, _, _ := strings.Cut(e.Name, "/"); d == dataset {
			gen, ok = max(gen, e.Generation), true
		}
	}
	return gen, ok
}

// notifyReplicas POSTs /sync/notify to every non-primary node,
// best-effort: a replica that misses the nudge still converges on its
// next poll.
func (rt *Router) notifyReplicas(ctx context.Context, dataset string) {
	if len(rt.nodes) < 2 {
		return
	}
	payload, _ := json.Marshal(server.SyncNotifyRequest{Dataset: dataset})
	header := http.Header{"Content-Type": []string{"application/json"}}
	var wg sync.WaitGroup
	for _, n := range rt.nodes[1:] {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			resp, err := rt.attempt(ctx, n, http.MethodPost, "/sync/notify", header, payload)
			if err == nil {
				drain(resp)
				rt.notifies.Add(1)
			}
		}(n)
	}
	wg.Wait()
}

// --- health and metrics -----------------------------------------------

// NodeStatus is one node's routing state on /healthz and /metrics.
type NodeStatus struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Breaker      string `json:"breaker"`
	Inflight     int64  `json:"inflight"`
	Proxied      uint64 `json:"proxied"`
	Failures     uint64 `json:"failures"`
	BreakerOpens uint64 `json:"breaker_opens"`
}

// FleetMetricsResponse is the body of the router's GET /metrics.
type FleetMetricsResponse struct {
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      uint64  `json:"requests"`
	Retries       uint64  `json:"retries"`
	Exhausted     uint64  `json:"exhausted"`
	Notifies      uint64  `json:"notifies"`
	// Collapsed is always 0: the router no longer collapses identical
	// misses. It stays only because the frozen bench/ module reads it, and
	// goes with that module's port to the live API.
	Collapsed uint64 `json:"-"`
	// StaleSkips counts node responses relayed but refused by the cache
	// because the answering node lagged a routed write or a newer version.
	StaleSkips uint64             `json:"cache_stale_skips"`
	Cache      *server.CacheStats `json:"cache,omitempty"`
	Nodes      []NodeStatus       `json:"nodes"`
}

func (rt *Router) nodeStatuses() []NodeStatus {
	out := make([]NodeStatus, len(rt.nodes))
	for i, n := range rt.nodes {
		st, opens := n.breaker.State()
		out[i] = NodeStatus{
			Name:         n.name,
			URL:          n.url,
			Breaker:      st.String(),
			Inflight:     n.inflight.Load(),
			Proxied:      n.proxied.Load(),
			Failures:     n.failures.Load(),
			BreakerOpens: opens,
		}
	}
	return out
}

// handleHealthz reports the router's own liveness plus per-node breaker
// state; "degraded" when any breaker is not closed, but always 200 — the
// router is up either way.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	status := "ok"
	nodes := rt.nodeStatuses()
	for _, n := range nodes {
		if n.Breaker != BreakerClosed.String() {
			status = "degraded"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"status": status,
		"role":   "router",
		"nodes":  nodes,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	out := FleetMetricsResponse{
		Role:          "router",
		UptimeSeconds: rt.opts.Now().Sub(rt.start).Seconds(),
		Requests:      rt.requests.Load(),
		Retries:       rt.retries.Load(),
		Exhausted:     rt.exhausted.Load(),
		Notifies:      rt.notifies.Load(),
		StaleSkips:    rt.staleSkips.Load(),
		Nodes:         rt.nodeStatuses(),
	}
	if rt.cache != nil {
		st := rt.cache.Stats()
		out.Cache = &st
	}
	_ = json.NewEncoder(w).Encode(out)
}
