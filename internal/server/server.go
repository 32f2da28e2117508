package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/summary"
)

// Options configure the HTTP service. The zero value requests the defaults
// noted on each field.
type Options struct {
	// Timeout bounds the handling of a single request, queueing included
	// (default 5s).
	Timeout time.Duration
	// MaxConcurrent bounds how many estimator evaluations may run at once;
	// excess requests queue until a slot frees or their timeout fires
	// (default 64).
	MaxConcurrent int
	// CacheSize bounds the LRU result cache in entries; <= -1 disables
	// caching, 0 selects the default 4096.
	CacheSize int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds how many queries one POST /query/batch call may
	// carry (default 1024, hard cap query.MaxBatchItems).
	MaxBatch int
	// Store, when non-nil, saves every model the node publishes and backs
	// GET /snapshots and the versioned-serving reads (/query?version=N and
	// its batch and group-by forms); nil serves 501 on them.
	Store *store.Store
	// HistoryBytes bounds the heap the historical-estimator cache behind
	// time-travel queries holds (<= 0 selects 64 MiB; see History).
	// Ignored without a Store.
	HistoryBytes int64
	// NodeName identifies this node in a fleet; it is echoed on /healthz
	// and /metrics so routers and operators can tell replicas apart.
	// Empty is fine for single-node deployments.
	NodeName string
	// SyncNotify, when non-nil, is invoked by POST /sync/notify with the
	// dataset named in the request body ("" = all) — the hook a replica's
	// sync loop hangs off so an ingest node can trigger an immediate pull
	// instead of waiting for the next poll.
	SyncNotify func(dataset string)
	// Now overrides the wall clock, for tests (default time.Now).
	Now func() time.Time
}

func (o *Options) setDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBatch > query.MaxBatchItems {
		o.MaxBatch = query.MaxBatchItems
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Server is the summaryd request handler: it answers counting and group-by
// queries over the registered estimators with caching, admission control,
// and metrics. Create it with New and mount Handler on an http.Server.
type Server struct {
	reg     *Registry
	cache   *Cache
	history *History // nil without a store
	metrics *Metrics
	sem     chan struct{}
	opts    Options
	mux     *http.ServeMux
	routes  []string

	livesMu sync.RWMutex
	lives   map[string]*Live
}

// New builds a server over the registry. Estimators may keep being
// registered after New; requests see them immediately.
func New(reg *Registry, opts Options) *Server {
	opts.setDefaults()
	s := &Server{
		reg:     reg,
		cache:   NewCache(opts.CacheSize),
		metrics: NewMetrics(opts.Now()),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		opts:    opts,
		lives:   make(map[string]*Live),
	}
	if opts.Store != nil {
		s.history = NewHistory(opts.Store, opts.HistoryBytes, opts.Now)
	}
	s.mux = http.NewServeMux()
	s.handle("/query", s.handleQuery)
	s.handle("/query/batch", s.handleBatch)
	s.handle("/groupby", s.handleGroupBy)
	s.handle("/estimators", s.handleEstimators)
	s.handle("/healthz", s.handleHealthz)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/snapshots", s.handleSnapshotList)
	s.handle("/ingest/", s.handleIngest)
	s.handle("/sync/snapshot", s.handleSyncSnapshot)
	s.handle("/sync/notify", s.handleSyncNotify)
	return s
}

// handle registers one route and records its pattern for Routes().
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	s.mux.HandleFunc(pattern, fn)
	s.routes = append(s.routes, pattern)
}

// Routes returns every registered HTTP route pattern, sorted. It is the
// source of truth the documentation lint gate (cigates docs) checks
// docs/API.md against, so an endpoint cannot be added — or renamed —
// without its documentation following along.
func (s *Server) Routes() []string {
	out := append([]string(nil), s.routes...)
	sort.Strings(out)
	return out
}

// AttachLive enables POST /ingest/{dataset} for a live dataset.
// Attaching may happen before or after serving starts.
func (s *Server) AttachLive(l *Live) {
	s.livesMu.Lock()
	s.lives[l.Dataset()] = l
	s.livesMu.Unlock()
}

// live looks up an attached live dataset.
func (s *Server) live(dataset string) (*Live, bool) {
	s.livesMu.RLock()
	defer s.livesMu.RUnlock()
	l, ok := s.lives[dataset]
	return l, ok
}

// liveStatuses returns the status of every attached live dataset, sorted
// by name.
func (s *Server) liveStatuses() []LiveStatus {
	s.livesMu.RLock()
	lives := make([]*Live, 0, len(s.lives))
	for _, l := range s.lives {
		lives = append(lives, l)
	}
	s.livesMu.RUnlock()
	out := make([]LiveStatus, 0, len(lives))
	for _, l := range lives {
		out = append(out, l.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

// Handler returns the HTTP handler serving all summaryd endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (for tests and metrics).
func (s *Server) Cache() *Cache { return s.cache }

// --- wire types -------------------------------------------------------

// QueryRequest is the body of POST /query. A null/omitted predicate asks
// for the full relation cardinality. Version > 0 answers from that
// retained snapshot of the estimator's dataset key instead of the live
// entry (time travel); a ?version=N URL parameter overrides the body
// field.
type QueryRequest struct {
	Estimator string           `json:"estimator"`
	Predicate *query.Predicate `json:"predicate,omitempty"`
	Version   int              `json:"version,omitempty"`
}

// QueryResponse is the body of a successful POST /query. Version echoes
// the snapshot version that answered (0 = the live estimator).
type QueryResponse struct {
	Estimator string  `json:"estimator"`
	Version   int     `json:"version,omitempty"`
	Count     float64 `json:"count"`
	Cached    bool    `json:"cached"`
	LatencyNS int64   `json:"latency_ns"`
}

// GroupByRequest is the body of POST /groupby. Version works as on
// /query.
type GroupByRequest struct {
	Estimator string           `json:"estimator"`
	Predicate *query.Predicate `json:"predicate,omitempty"`
	GroupBy   []int            `json:"group_by"`
	Version   int              `json:"version,omitempty"`
}

// GroupRow is one group of a group-by answer.
type GroupRow = query.GroupRow

// GroupByResponse is the body of a successful POST /groupby.
type GroupByResponse struct {
	Estimator string     `json:"estimator"`
	Version   int        `json:"version,omitempty"`
	Groups    []GroupRow `json:"groups"`
	Cached    bool       `json:"cached"`
	LatencyNS int64      `json:"latency_ns"`
}

// EstimatorInfo describes one registered estimator on GET /estimators.
// Domain sizes let remote clients (cmd/loadgen) generate schema-compatible
// workloads without sharing code with the server.
type EstimatorInfo struct {
	Name        string   `json:"name"`
	ApproxBytes int64    `json:"approx_bytes"`
	NumAttrs    int      `json:"num_attrs"`
	AttrNames   []string `json:"attr_names"`
	DomainSizes []int    `json:"domain_sizes"`
	// Generation is the served model's version (Entry.Version): its store
	// version on a node with a store, its publish count on one without.
	Generation uint64 `json:"generation"`
	// Certificate is how converged a summary-backed entry's model is; nil,
	// and its fields absent from the JSON, for other estimators.
	*Certificate
}

// Certificate is the outcome of the MaxEnt solve behind a served summary
// (summary.Summary.SolverReport), as built, refreshed or restored.
type Certificate struct {
	Sweeps int `json:"sweeps"`
	// MaxViolation is the model's maximum relative constraint violation.
	MaxViolation float64 `json:"max_violation"`
	// Converged reports whether MaxViolation is below the solver tolerance.
	Converged bool `json:"converged"`
}

// EstimatorsResponse is the body of GET /estimators.
type EstimatorsResponse struct {
	Estimators []EstimatorInfo `json:"estimators"`
}

// IngestRequest is the JSON body of POST /ingest/{dataset}: a batch of
// already-encoded rows (domain value indexes, schema order). CSV bodies
// (Content-Type: text/csv) carry raw values instead — labels for
// categorical attributes, numbers for binned ones — and are encoded
// server-side.
type IngestRequest struct {
	Rows [][]int `json:"rows"`
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	MetricsSnapshot
	// Node is the fleet identity of this summaryd (Options.NodeName);
	// absent on single-node deployments.
	Node       string          `json:"node,omitempty"`
	Cache      CacheStats      `json:"cache"`
	Estimators []EstimatorInfo `json:"estimators"`
	// Datasets reports per-dataset ingestion state (generation, pending
	// rows = staleness) for every live dataset; empty when ingestion is
	// not enabled.
	Datasets []LiveStatus `json:"datasets,omitempty"`
	// History reports the historical-estimator cache behind time-travel
	// queries; absent without a snapshot store.
	History *HistoryStats `json:"history,omitempty"`
}

// ErrorResponse is the body of every non-2xx response of a node and of the
// fleet router.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteError writes a non-2xx response with its ErrorResponse body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// EstimatorGenerationHeader is the response header on /query, /groupby, and
// /query/batch carrying the version of the live registry entry that
// answered (Entry.Version). Time-travel answers (version > 0) omit it — the
// client named their version. The fleet router's read cache keys its
// entries by this header, so a hot swap moves router reads to the new
// version exactly as it moves node-local ones.
const EstimatorGenerationHeader = "X-Estimator-Generation"

// --- handlers ---------------------------------------------------------

// httpError is an error carrying the HTTP status it should be reported
// with.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// handleQuery serves /query and handleGroupBy /groupby: one query is a
// batch of one.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	s.finish(w, start, s.serveSingle(w, r, start, DecodeQuery))
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	s.finish(w, start, s.serveSingle(w, r, start, DecodeGroupBy))
}

// serveSingle is the edge codec of the single-read endpoints: decode, run
// the one-item read, and write the item's answer — or its failure, which a
// single endpoint reports as the HTTP status (400 for a shape error, 422
// for an estimator refusal) a batch would carry in-band.
func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, start time.Time,
	decode func(*http.Request, io.Reader) (ReadRequest, error)) *httpError {
	req, err := decode(r, http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		return asHTTPError(err)
	}
	ent, answers, itemErrs, herr := s.read(r.Context(), w, req)
	if herr != nil {
		return herr
	}
	if itemErrs != nil {
		return itemErrs[0]
	}
	WriteJSONAnswer(w, ent.Name, req.Version, answers[0], s.opts.Now().Sub(start).Nanoseconds())
	return nil
}

// finish is the shared tail of the read endpoints: it writes the request's
// failure, if any and not already written, as a JSON error and accounts the
// request.
func (s *Server) finish(w http.ResponseWriter, start time.Time, herr *httpError) {
	if herr != nil && herr != errTimedOut {
		WriteError(w, herr.status, herr.msg)
	}
	s.metrics.Record(s.opts.Now().Sub(start), herr != nil)
}

// asHTTPError recovers the status a decoder attached to its error.
func asHTTPError(err error) *httpError {
	var herr *httpError
	if errors.As(err, &herr) {
		return herr
	}
	return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
}

func (s *Server) handleEstimators(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, EstimatorsResponse{Estimators: s.estimatorInfos()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": s.metrics.uptime(s.opts.Now()),
		"estimators":     s.reg.Len(),
	}
	if s.opts.NodeName != "" {
		resp["node"] = s.opts.NodeName
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := MetricsResponse{
		MetricsSnapshot: s.metrics.Snapshot(s.opts.Now()),
		Node:            s.opts.NodeName,
		Cache:           s.cache.Stats(),
		Estimators:      s.estimatorInfos(),
		Datasets:        s.liveStatuses(),
	}
	if s.history != nil {
		hs := s.history.Stats()
		resp.History = &hs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIngest serves POST /ingest/{dataset}: it appends a batch of rows
// to the live dataset's pending rows and, when the refresh threshold is
// crossed, hot-swaps a refreshed model before responding. The append
// and refresh run on the same bounded worker pool as query evaluation,
// under the per-request timeout, so an ingest burst cannot hold
// unbounded goroutines: excess requests queue for a slot (503 on
// admission timeout) and a straggling refresh is abandoned with a 504
// (it still completes server-side; the response is what gives up).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	failed := false
	defer func() { s.metrics.Record(s.opts.Now().Sub(start), failed) }()
	fail := func(status int, msg string) {
		failed = true
		WriteError(w, status, msg)
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "use POST")
		return
	}
	dataset := strings.TrimPrefix(r.URL.Path, "/ingest/")
	if dataset == "" || strings.Contains(dataset, "/") {
		fail(http.StatusBadRequest, "use POST /ingest/{dataset} with a single-segment dataset name")
		return
	}
	live, ok := s.live(dataset)
	if !ok {
		fail(http.StatusNotFound, fmt.Sprintf("dataset %q does not accept ingestion (no live dataset attached)", dataset))
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	sch := live.Schema()
	var rows [][]int
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		rows, err = DecodeCSVRows(sch, body)
	} else {
		rows, err = decodeJSONIngest(sch, body)
	}
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if len(rows) == 0 {
		fail(http.StatusBadRequest, "ingest batch is empty")
		return
	}

	var res IngestResult
	herr := s.execute(r.Context(), w, func() (err error) {
		res, err = live.Ingest(rows)
		return err
	})
	if herr == errTimedOut {
		failed = true
		return
	}
	if herr != nil {
		status := herr.status
		if status == http.StatusUnprocessableEntity {
			// An Ingest error always means nothing was appended (validation
			// failed) — the client's fault, not the server's; refresh
			// problems after a successful append arrive in refresh_error on
			// a 200 instead, so clients never retry rows that landed.
			status = http.StatusBadRequest
		}
		fail(status, herr.msg)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) estimatorInfos() []EstimatorInfo {
	entries := s.reg.Entries()
	out := make([]EstimatorInfo, 0, len(entries))
	for _, e := range entries {
		info := EstimatorInfo{
			Name:        e.Name,
			ApproxBytes: e.Estimator.ApproxBytes(),
			NumAttrs:    e.Schema.NumAttrs(),
			DomainSizes: e.Schema.DomainSizes(),
			Generation:  uint64(e.Version),
		}
		if sum, ok := e.Estimator.(*summary.Summary); ok {
			rep := sum.SolverReport()
			info.Certificate = &Certificate{Sweeps: rep.Sweeps, MaxViolation: rep.MaxViolation, Converged: rep.Converged}
		}
		for i := 0; i < e.Schema.NumAttrs(); i++ {
			info.AttrNames = append(info.AttrNames, e.Schema.Attr(i).Name())
		}
		out = append(out, info)
	}
	return out
}

// --- request plumbing -------------------------------------------------

// lookupEntry resolves an estimator name at a version: version <= 0 is
// the live registry entry, version > 0 a retained snapshot — the live entry
// when it serves that version (a Register'd entry serves version 1), so the
// serving model is never restored a second time, and otherwise one served
// through the historical cache (restored on first hit).
func (s *Server) lookupEntry(estimator string, version int) (Entry, *httpError) {
	if estimator == "" {
		return Entry{}, badRequest(`missing "estimator"`)
	}
	if version > 0 && s.history == nil {
		return Entry{}, &httpError{status: http.StatusNotImplemented,
			msg: "versioned queries need a snapshot store (start summaryd with -store)"}
	}
	if ent, ok := s.reg.Get(estimator); ok && (version <= 0 || ent.Version == version) {
		return ent, nil
	}
	if version <= 0 {
		return Entry{}, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown estimator %q", estimator)}
	}
	ent, err := s.history.Get(estimator, version)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			return Entry{}, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("estimator %q has no snapshot version %d", estimator, version)}
		case errors.Is(err, store.ErrCorrupt):
			return Entry{}, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		default:
			return Entry{}, badRequest("%v", err)
		}
	}
	return ent, nil
}

// execute runs fn on the calling goroutine under one of the bounded worker
// slots, within Options.Timeout of ctx: it queues for a slot (503 when the
// context ends first) and holds it until fn returns. A deadline or a client
// cancel that comes first does not wait for fn: a callback on the context
// writes the 504 at once, closing the connection, and execute then returns
// errTimedOut, whose response is already written — the handler writes
// nothing more. A straggling evaluation is abandoned, not cancelled, and
// keeps its slot, so a timeout never unbounds the pool. An error from fn is
// a 422.
func (s *Server) execute(ctx context.Context, w http.ResponseWriter, fn func() error) (herr *httpError) {
	ctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	// Deferred first, so it runs last: the callback is stopped before the
	// cancel could fire it.
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return &httpError{status: http.StatusServiceUnavailable, msg: "server saturated: timed out waiting for a worker slot"}
	}
	d := &deadline{w: w}
	stop := context.AfterFunc(ctx, d.expire)
	defer func() {
		<-s.sem
		if !stop() && d.finish() {
			herr = errTimedOut
		}
	}()
	if err := fn(); err != nil {
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return nil
}

// errTimedOut is the outcome of a request whose 504 its deadline wrote.
var errTimedOut = &httpError{status: http.StatusGatewayTimeout, msg: "query timed out"}

// deadline writes an evaluation's 504 when its context ends first. The
// mutex orders that write against the handler's: whichever of expire and
// finish runs first decides who answers.
type deadline struct {
	mu       sync.Mutex
	w        http.ResponseWriter
	returned bool // the evaluation returned first: the handler answers
	expired  bool // the 504 is written
}

// timedOutBody is what WriteError writes for errTimedOut.
var timedOutBody = []byte(`{"error":"query timed out"}` + "\n")

func (d *deadline) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.returned {
		return
	}
	d.expired = true
	h := d.w.Header()
	h.Set("Content-Type", "application/json")
	// The handler still runs the evaluation: the connection is closed once
	// it returns, so no client waits behind it, and the length ends the
	// body now.
	h.Set("Connection", "close")
	h.Set("Content-Length", strconv.Itoa(len(timedOutBody)))
	d.w.WriteHeader(errTimedOut.status)
	_, _ = d.w.Write(timedOutBody)
	if f, ok := d.w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish reports whether the 504 was written; after it, expire writes
// nothing.
func (d *deadline) finish() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.returned = true
	return d.expired
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
