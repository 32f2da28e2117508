package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/summary"
)

// workloadDef is one workload: its name, why it exists, and how it is set up.
type workloadDef struct {
	name  string
	why   string
	setup func(e *env) (*session, error)
}

var workloads = []workloadDef{
	{"build-cold", "summary.Build, store.Save and store.Load with no serving: the paper's preprocessing time", setupBuildCold},
	{"explore-uncached", "distinct JSON queries at a node with its cache off: masked evaluation, group-by and the per-request path", setupExploreUncached},
	{"node-warm", "a pool that fits the node cache, binary batches of 32 from one client: codec, batch path and cache hits", setupNodeWarm},
	{"routed-mixed", "Zipf draws over 8x the router cache through router, primary and replica: router hits mixed with node misses", setupRoutedMixed},
	{"ingest-refresh", "5000-row ingests that refresh, publish and swap the model beside dashboard reads: writes next to reads", setupIngestRefresh},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what a set-up works from: the generated dataset, the scale, where
// stores may live on disk, and the tracer of a traced run (nil otherwise).
type env struct {
	ds     *dataset
	sc     scale
	tmpDir string
	tr     *tracer
}

// segStats is what one timed segment measured.
type segStats struct {
	ops     int // logical operations completed
	elapsed time.Duration
	// steps are the times of the segment's consecutive parts; part k does
	// the same work in every segment. stepReads[k] counts the reads made by
	// the end of part k.
	steps     []time.Duration
	stepReads []int
	reads     []time.Duration // round trips of read requests
	hitReads  []time.Duration // those of them a router answered alone
	nodeReads []time.Duration // those of them a node answered
	missReads []time.Duration // those of them known to miss every cache
	writes    []time.Duration // round trips of write requests
	readItems int             // queries the read requests carried
	bytesOut  int64           // request bytes of the read requests
	bytesIn   int64           // reply bytes of the read requests
	failed    int             // logical operations failed or refused
	s503      int
	s504      int
}

// read accounts one read round trip.
func (st *segStats) read(cl *call, r reply, err error) {
	st.ops += len(cl.items)
	st.readItems += len(cl.items)
	if err != nil {
		st.failed += len(cl.items)
		return
	}
	st.reads = append(st.reads, r.rtt)
	st.bytesOut += int64(len(cl.body))
	st.bytesIn += int64(len(r.body))
	switch r.status {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		st.s503++
		st.failed += len(cl.items)
	case http.StatusGatewayTimeout:
		st.s504++
		st.failed += len(cl.items)
	default:
		st.failed += len(cl.items)
	}
}

// endStep closes the part of the segment that began at start.
func (st *segStats) endStep(start time.Time) {
	st.steps = append(st.steps, time.Since(start))
	st.stepReads = append(st.stepReads, len(st.reads))
}

// sweepClock notes when each sweep of a solve ended. Handed to the program as
// solver.Options.Progress, it lets a build or a refresh, which from outside
// is one call, be timed sweep by sweep.
type sweepClock struct {
	mu    sync.Mutex
	marks []time.Time
}

func (c *sweepClock) mark(int, float64) {
	c.mu.Lock()
	c.marks = append(c.marks, time.Now())
	c.mu.Unlock()
}

// take returns the marks noted since the last take.
func (c *sweepClock) take() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	marks := c.marks
	c.marks = nil
	return marks
}

// endSweptStep closes the part that began at start as one part per sweep the
// clock noted, and one for what followed the last sweep.
func (st *segStats) endSweptStep(start time.Time, c *sweepClock) {
	end := time.Now()
	for _, mark := range c.take() {
		st.steps = append(st.steps, mark.Sub(start))
		st.stepReads = append(st.stepReads, len(st.reads))
		start = mark
	}
	st.steps = append(st.steps, end.Sub(start))
	st.stepReads = append(st.stepReads, len(st.reads))
}

func (st *segStats) merge(o *segStats) {
	st.ops += o.ops
	st.reads = append(st.reads, o.reads...)
	st.hitReads = append(st.hitReads, o.hitReads...)
	st.nodeReads = append(st.nodeReads, o.nodeReads...)
	st.missReads = append(st.missReads, o.missReads...)
	st.writes = append(st.writes, o.writes...)
	st.readItems += o.readItems
	st.bytesOut += o.bytesOut
	st.bytesIn += o.bytesIn
	st.failed += o.failed
	st.s503 += o.s503
	st.s504 += o.s504
}

// session is a workload that has been set up and is ready to be timed.
type session struct {
	// base is the model summary.Build gave for the dataset at set-up.
	base *summary.Summary
	// segment runs one timed segment: the same work every time it is called.
	segment func() *segStats
	// warm, when set, brings the caches and connections to the state the
	// timed segments start from. It is the last step of the set-up, and runs
	// again whenever queries outside the segments went through the path.
	warm func()
	// reference is the in-process estimator of the generation being served;
	// served answers must be bit-identical to it.
	reference func() core.Estimator
	// ask answers queries through the workload's serving path.
	ask func(items []query.BatchItem) ([]query.BatchAnswer, error)
	// pool is every query the timed segments send; the untimed pass checks
	// the answer to each.
	pool []query.BatchItem
	// sample runs a fixed few of the workload's operations one at a time;
	// the traced run makes it with tracing off and on.
	sample func() *segStats
	// reissue adds to the trace the calls that happen inside the program and
	// can only be timed by making them again.
	reissue func(t *tracer)
	// nodeCache and routerMetrics expose the counters of the layers the
	// workload runs through; nil when it has no such layer.
	nodeCache     func() server.CacheStats
	routerMetrics func() (fleet.FleetMetricsResponse, error)
	// buildTime and syncTime are set-up steps reported per layer.
	buildTime time.Duration
	syncTime  time.Duration
	closers   []func()
}

func (s *session) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func (s *session) onClose(fn func()) { s.closers = append(s.closers, fn) }

// node is one summaryd in this process, serving on loopback.
type node struct {
	srv  *server.Server
	http *httptest.Server
}

// openStore opens a snapshot store under the run's scratch directory.
func (e *env) openStore(s *session) (*store.Store, error) {
	dir, err := os.MkdirTemp(e.tmpDir, "store-")
	if err != nil {
		return nil, err
	}
	s.onClose(func() { os.RemoveAll(dir) })
	return store.Open(dir)
}

// serve starts a node over the registry on loopback; on a traced run every
// request it serves leaves a span.
func (e *env) serve(s *session, reg *server.Registry, opts server.Options) *node {
	n := &node{srv: server.New(reg, opts)}
	n.http = httptest.NewServer(e.tr.middleware("server.handler", n.srv.Handler()))
	s.onClose(n.http.Close)
	return n
}

// register puts the estimator into the registry under the served name; on a
// traced run it is wrapped so each call the server makes leaves a span.
func (e *env) register(reg *server.Registry, est core.Estimator) error {
	if e.tr != nil {
		est = tracedEstimator{Estimator: est, t: e.tr}
	}
	return reg.Register(estimatorName, est, e.ds.rel.Schema())
}

// build runs summary.Build over the dataset and records how long it took.
func (e *env) build(s *session) (*summary.Summary, error) {
	start := time.Now()
	sum, err := summary.Build(e.ds.rel, e.sc.summaryOptions())
	s.buildTime = time.Since(start)
	return sum, err
}

// askVia answers items through a client, as JSON singles or binary batches.
func (e *env) askVia(c *client, asJSON bool) func([]query.BatchItem) ([]query.BatchAnswer, error) {
	return func(items []query.BatchItem) ([]query.BatchAnswer, error) {
		var (
			calls []*call
			err   error
		)
		if asJSON {
			calls, err = jsonCalls(items)
		} else {
			calls, err = batchCalls(items, e.sc.batch)
		}
		if err != nil {
			return nil, err
		}
		return c.ask(calls)
	}
}

// stepsPerReplay is how many separately timed parts a replayed segment is
// cut into.
const stepsPerReplay = 16

// send makes one read request and accounts it.
func (st *segStats) send(c *client, cl *call) {
	r, err := c.do(cl)
	st.read(cl, r, err)
	if err == nil && r.status == http.StatusOK {
		if r.routerHit {
			st.hitReads = append(st.hitReads, r.rtt)
		} else {
			st.nodeReads = append(st.nodeReads, r.rtt)
		}
	}
}

// timedReplay is a segment that replays calls, passes times over, on one
// client, timing each of its parts.
func timedReplay(c *client, calls []*call, passes int) *segStats {
	st := &segStats{}
	start := time.Now()
	total := passes * len(calls)
	for k := 0; k < stepsPerReplay; k++ {
		stepStart := time.Now()
		for i := k * total / stepsPerReplay; i < (k+1)*total/stepsPerReplay; i++ {
			st.send(c, calls[i%len(calls)])
		}
		st.endStep(stepStart)
	}
	st.elapsed = time.Since(start)
	return st
}

// sampleOf spreads n picks evenly over calls.
func sampleOf(calls []*call, n int) []*call {
	if n >= len(calls) {
		return calls
	}
	out := make([]*call, n)
	for i := range out {
		out[i] = calls[i*len(calls)/n]
	}
	return out
}

// --- build-cold ---------------------------------------------------------

// setupBuildCold prepares the preprocessing workload: each operation builds
// the summary from the relation, saves it, loads it back and probes the
// loaded model against the built one. No server runs.
func setupBuildCold(e *env) (*session, error) {
	s := &session{}
	ref, err := e.build(s)
	if err != nil {
		return nil, err
	}
	st0, err := e.openStore(s)
	if err != nil {
		return nil, err
	}
	s.pool = e.ds.newQueryMix(1).explore(e.sc.explorePool)
	probes := s.pool[:e.sc.probes]

	// The model the accuracy measures are read from is the reference build
	// after a save and a load; a build is cold by nature, so no operation
	// runs before the timed ones.
	if _, err := st0.Save(estimatorName, ref); err != nil {
		return nil, err
	}
	loaded, _, err := st0.Load(estimatorName, 0)
	if err != nil {
		return nil, err
	}
	// One operation, timed in parts: the build sweep by sweep (the stretch
	// before the first sweep ends with it), then the save, the load and the
	// probes.
	var sweeps sweepClock
	opts := e.sc.summaryOptions()
	opts.Solver.Progress = sweeps.mark
	s.segment = func() *segStats {
		st := &segStats{ops: 1}
		start := time.Now()
		step := func(fn func() error) {
			stepStart := time.Now()
			if st.failed == 0 && fn() != nil {
				st.failed = 1
			}
			st.endStep(stepStart)
		}
		sweeps.take()
		sum, err := summary.Build(e.ds.rel, opts)
		st.endSweptStep(start, &sweeps)
		if err != nil {
			st.failed = 1
		}
		var est core.Estimator
		step(func() (err error) { _, err = st0.Save(estimatorName, sum); return })
		step(func() (err error) { est, _, err = st0.Load(estimatorName, 0); return })
		step(func() error {
			for _, it := range probes {
				if !sameBits(inProcess(ref, it), inProcess(est, it)) {
					return fmt.Errorf("loaded model differs from the reference build")
				}
			}
			return nil
		})
		st.elapsed = time.Since(start)
		return st
	}
	s.base = ref
	s.reference = func() core.Estimator { return ref }
	s.ask = func(items []query.BatchItem) ([]query.BatchAnswer, error) {
		out := make([]query.BatchAnswer, len(items))
		for i, it := range items {
			out[i] = inProcess(loaded, it)
		}
		return out, nil
	}
	s.sample = s.segment
	s.reissue = func(*tracer) {}
	return s, nil
}

// --- explore-uncached ---------------------------------------------------

// setupExploreUncached prepares a node with its result cache off and one
// client that replays distinct JSON queries: every answer is evaluated.
func setupExploreUncached(e *env) (*session, error) {
	s := &session{}
	sum, err := e.build(s)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if err := e.register(reg, sum); err != nil {
		return nil, err
	}
	n := e.serve(s, reg, server.Options{CacheSize: -1})
	c := newClient(n.http.URL, e.tr)
	s.onClose(c.close)

	s.pool = e.ds.newQueryMix(2).explore(e.sc.explorePool)
	calls, err := jsonCalls(s.pool)
	if err != nil {
		return nil, err
	}
	s.segment = func() *segStats {
		st := timedReplay(c, calls, 1)
		st.missReads = st.nodeReads // the cache is off
		return st
	}
	s.warm = func() { s.segment() }
	s.base = sum
	s.reference = func() core.Estimator { return sum }
	s.ask = e.askVia(c, true)
	s.nodeCache = n.srv.Cache().Stats
	picked := sampleOf(calls, e.sc.traceSample)
	s.sample = func() *segStats { return timedReplay(c, picked, 1) }
	s.reissue = func(t *tracer) { reissueEvals(t, sum); reissueCodecs(t) }
	return s, nil
}

// --- node-warm ----------------------------------------------------------

// setupNodeWarm prepares a node with the default cache, a pool that fits it,
// and one client that replays the pool as binary batches: every item hits.
// (Two clients on two cores left the fastest segment swinging by 13 % from
// run to run; with one it repeats within 2 %.)
func setupNodeWarm(e *env) (*session, error) {
	s := &session{}
	sum, err := e.build(s)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if err := e.register(reg, sum); err != nil {
		return nil, err
	}
	n := e.serve(s, reg, server.Options{})
	c := newClient(n.http.URL, e.tr)
	s.onClose(c.close)

	s.pool = e.ds.newQueryMix(3).counts(e.sc.warmPool)
	calls, err := batchCalls(s.pool, e.sc.batch)
	if err != nil {
		return nil, err
	}
	s.segment = func() *segStats { return timedReplay(c, calls, e.sc.warmPasses) }
	s.warm = func() { timedReplay(c, calls, 1) } // fills the cache
	s.base = sum
	s.reference = func() core.Estimator { return sum }
	s.ask = e.askVia(c, false)
	s.nodeCache = n.srv.Cache().Stats
	picked := sampleOf(calls, e.sc.traceSample)
	s.sample = func() *segStats { return timedReplay(c, picked, 1) }
	s.reissue = func(t *tracer) { reissueEvals(t, sum); reissueCodecs(t) }
	return s, nil
}

// --- routed-mixed -------------------------------------------------------

// setupRoutedMixed prepares a router with the default cache in front of a
// primary and one replica fed by a Syncer, and one client that replays a
// fixed Zipf draw sequence over many more queries than the router caches.
func setupRoutedMixed(e *env) (*session, error) {
	s := &session{}
	sum, err := e.build(s)
	if err != nil {
		return nil, err
	}
	pst, err := e.openStore(s)
	if err != nil {
		return nil, err
	}
	preg := server.NewRegistry()
	if err := e.register(preg, sum); err != nil {
		return nil, err
	}
	if _, err := pst.Save(estimatorName, sum); err != nil {
		return nil, err
	}
	primary := e.serve(s, preg, server.Options{Store: pst, NodeName: "node0"})

	rst, err := e.openStore(s)
	if err != nil {
		return nil, err
	}
	rreg := server.NewRegistry()
	syncer := fleet.NewSyncer(primary.http.URL, rst, rreg, fleet.SyncerOptions{})
	start := time.Now()
	if _, err := syncer.SyncOnce(context.Background()); err != nil {
		return nil, fmt.Errorf("routed-mixed: replica sync: %w", err)
	}
	s.syncTime = time.Since(start)
	if e.tr != nil {
		// Swap would bump the replica's generation away from the primary's;
		// registering afresh keeps both at 1.
		ent, _ := rreg.Get(estimatorName)
		rreg.Unregister(estimatorName)
		if err := e.register(rreg, ent.Estimator); err != nil {
			return nil, err
		}
	}
	replica := e.serve(s, rreg, server.Options{Store: rst, NodeName: "node1", SyncNotify: syncer.Notify})
	syncer.AttachCache(replica.srv.Cache())

	router, err := fleet.NewRouter([]fleet.NodeConfig{
		{Name: "node0", URL: primary.http.URL},
		{Name: "node1", URL: replica.http.URL},
	}, fleet.Options{CacheSize: e.sc.routerCache})
	if err != nil {
		return nil, err
	}
	rhttp := httptest.NewServer(e.tr.middleware("fleet.router", router.Handler()))
	s.onClose(rhttp.Close)
	c := newClient(rhttp.URL, e.tr)
	s.onClose(c.close)

	mix := e.ds.newQueryMix(4)
	keys := mix.counts(e.sc.routedKeys)
	draws := zipfDraws(e.sc.routedBatches*e.sc.batch, len(keys))
	drawn := make([]query.BatchItem, len(draws))
	for i, k := range draws {
		drawn[i] = keys[k]
	}
	s.pool = drawn
	calls, err := batchCalls(drawn, e.sc.batch)
	if err != nil {
		return nil, err
	}
	s.segment = func() *segStats {
		st := timedReplay(c, calls, 1)
		st.missReads = st.nodeReads // what the router passes on is the tail, which the nodes evict too
		return st
	}
	s.warm = func() { s.segment() }
	s.base = sum
	s.reference = func() core.Estimator { return sum }
	s.ask = e.askVia(c, false)
	s.nodeCache = primary.srv.Cache().Stats
	s.routerMetrics = func() (fleet.FleetMetricsResponse, error) {
		var m fleet.FleetMetricsResponse
		resp, err := http.Get(rhttp.URL + "/metrics")
		if err != nil {
			return m, err
		}
		defer resp.Body.Close()
		return m, json.NewDecoder(resp.Body).Decode(&m)
	}
	picked := sampleOf(calls, e.sc.traceSample)
	s.sample = func() *segStats { return timedReplay(c, picked, 1) }
	s.reissue = func(t *tracer) { reissueEvals(t, sum); reissueCodecs(t) }
	return s, nil
}

// --- ingest-refresh -----------------------------------------------------

// setupIngestRefresh prepares a live dataset over a store whose every ingest
// batch crosses the refresh threshold, and one client that alternates one
// ingest with a few replays of a dashboard.
func setupIngestRefresh(e *env) (*session, error) {
	s := &session{}
	st, err := e.openStore(s)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	start := time.Now()
	// The refresh an ingest runs is one request from outside; the sweep clock
	// lets its solve be timed sweep by sweep all the same.
	var sweeps sweepClock
	opts := e.sc.summaryOptions()
	opts.Solver.Progress = sweeps.mark
	live, _, err := server.BuildLiveDataset(reg, datasetName, e.ds.mutable(), server.LiveOptions{
		Dataset:     server.DatasetOptions{Summary: opts, SkipExact: true, Store: st},
		RefreshRows: e.sc.ingestRows,
	})
	s.buildTime = time.Since(start)
	if err != nil {
		return nil, err
	}
	n := e.serve(s, reg, server.Options{Store: st})
	n.srv.AttachLive(live)
	c := newClient(n.http.URL, e.tr)
	s.onClose(c.close)

	s.pool = e.ds.newQueryMix(5).counts(e.sc.dashboard)
	dashboard, err := batchCalls(s.pool, e.sc.batch)
	if err != nil {
		return nil, err
	}
	reference := func() core.Estimator {
		ent, _ := reg.Get(estimatorName)
		return ent.Estimator
	}
	// lastBase and lastDelta are the model and the rows of the latest ingest,
	// for the traced run to repeat the refresh on.
	var (
		lastBase  *summary.Summary
		lastDelta [][]int
	)
	// The rows of an ingest are drawn and marshalled before its timed
	// interval starts.
	s.segment = func() *segStats {
		rows := e.ds.gen.rows(e.sc.ingestRows)
		body, err := json.Marshal(server.IngestRequest{Rows: rows})
		if err != nil {
			panic(err) // unreachable: rows of ints always marshal
		}
		ingest := &call{path: "/ingest/" + datasetName, ctype: "application/json", body: body}
		before := reference()
		lastBase, _ = before.(*summary.Summary)
		lastDelta = rows

		// The steps of a cycle: the ingest sweep by sweep, then each replay of
		// the dashboard; the first misses the cache the swap emptied, the
		// others hit.
		st := &segStats{ops: 1}
		sweeps.take()
		start := time.Now()
		r, err := c.do(ingest)
		st.endSweptStep(start, &sweeps)
		var res server.IngestResult
		if err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &res) != nil ||
			!res.Refreshed || res.RefreshError != "" || res.Accepted != len(rows) {
			st.failed++
		} else {
			st.writes = append(st.writes, r.rtt)
		}
		for replayNo := 0; replayNo < e.sc.replays; replayNo++ {
			stepStart := time.Now()
			for _, cl := range dashboard {
				st.send(c, cl)
			}
			st.endStep(stepStart)
			if replayNo == 0 {
				st.missReads = append(st.missReads, st.reads...)
			}
		}
		st.elapsed = time.Since(start)
		if reference() == before {
			st.failed++ // the ingest did not swap a new model in
		}
		return st
	}
	s.warm = func() { timedReplay(c, dashboard, 1) } // the read path; an ingest is never warm
	s.base, _ = reference().(*summary.Summary)
	s.reference = reference
	s.ask = e.askVia(c, false)
	s.nodeCache = n.srv.Cache().Stats
	s.sample = s.segment
	s.reissue = func(t *tracer) { reissueRefresh(t, lastBase, lastDelta); reissueCodecs(t) }
	return s, nil
}
