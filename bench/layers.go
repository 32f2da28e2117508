package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/summary"
)

// best returns the shortest of n timings of fn: on a shared host, noise only
// adds time.
func best(n int, fn func()) time.Duration {
	var min time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); i == 0 || d < min {
			min = d
		}
	}
	return min
}

// timeOf returns how long one call of fn takes.
func timeOf(fn func()) time.Duration { return best(1, fn) }

// perCall returns the time of one call of fn(i), from the best of three
// passes over i in [0, n).
func perCall(n int, fn func(i int)) time.Duration {
	return best(3, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / time.Duration(n)
}

// stage is one step of a pipeline with the time it took.
type stage struct {
	name string
	d    time.Duration
}

// constraintsOf lists one expected-value constraint per statistic, in the
// order summary.Build does.
func constraintsOf(set *stats.Set) []solver.Constraint {
	cs := make([]solver.Constraint, 0, set.NumStatistics())
	for attr, col := range set.OneD {
		for value, target := range col {
			cs = append(cs, solver.OneDConstraint(attr, value, target))
		}
	}
	for j, st := range set.Multi {
		cs = append(cs, solver.MultiConstraint(j, st.Count))
	}
	return cs
}

// stagedBuild runs the pipeline summary.Build runs, one public call at a
// time, and returns the solved system with the time of each stage. On a
// traced build-cold run every stage leaves an inline span under one
// operation span.
func stagedBuild(rel *relation.Relation, opts summary.Options, t *tracer) ([]stage, *stats.Set, *polynomial.System, solver.Report, error) {
	var stages []stage
	var err error
	step := func(name string, fn func()) {
		id := t.begin(name)
		start := time.Now()
		fn()
		stages = append(stages, stage{name, time.Since(start)})
		t.end(id)
	}
	op := t.begin("summary.staged_build")
	defer t.end(op)

	var set *stats.Set
	step("stats.newset", func() { set = stats.NewSet(rel) })
	step("stats.select_multi", func() {
		_, err = stats.SelectMulti(rel, set, opts.PairBudget, opts.PerPairBudget, opts.Policy, opts.Heuristic)
	})
	if err != nil {
		return nil, nil, nil, solver.Report{}, err
	}
	var comp *polynomial.Compressed
	step("polynomial.compress", func() { comp, err = polynomial.NewCompressed(set.DomainSizes, set.MultiSpecs()) })
	if err != nil {
		return nil, nil, nil, solver.Report{}, err
	}
	var sys *polynomial.System
	step("polynomial.newsystem", func() { sys = polynomial.NewSystem(comp) })
	var report solver.Report
	step("solver.solve_cold", func() {
		report, err = solver.Solve(sys, constraintsOf(set), solver.Options{N: float64(set.N)})
		sys.Eval(nil)
	})
	return stages, set, sys, report, err
}

// sameSystem reports whether two solved systems hold bit-identical variable
// values.
func sameSystem(a, b *polynomial.System) bool {
	va, vb := a.Variables(), b.Variables()
	if len(va) != len(vb) {
		return false
	}
	for i, v := range va {
		if vb[i] != v || math.Float64bits(a.Get(v)) != math.Float64bits(b.Get(v)) {
			return false
		}
	}
	return true
}

// deltaRelation encodes ingest rows as a relation.
func deltaRelation(rows [][]int) *relation.Relation {
	rel := relation.NewWithCapacity(flightsSchema(), len(rows))
	for _, row := range rows {
		rel.MustAppend(row)
	}
	return rel
}

// stagedRefresh runs the incremental path of Summary.Refresh one public call
// at a time on the given delta.
func stagedRefresh(base *summary.Summary, delta *relation.Relation) ([]stage, solver.Report, error) {
	var stages []stage
	start := time.Now()
	set := base.Stats().Clone()
	if err := set.ApplyDelta(delta); err != nil {
		return nil, solver.Report{}, err
	}
	stages = append(stages, stage{"stats.apply_delta", time.Since(start)})

	start = time.Now()
	sys := polynomial.NewSystem(base.System().Poly())
	stages = append(stages, stage{"polynomial.newsystem", time.Since(start)})

	start = time.Now()
	report, err := solver.Solve(sys, constraintsOf(set), solver.Options{N: float64(set.N), Init: base.System()})
	sys.Eval(nil)
	stages = append(stages, stage{"solver.solve_warm", time.Since(start)})
	return stages, report, err
}

func stageTime(stages []stage, name string) time.Duration {
	for _, st := range stages {
		if st.name == name {
			return st.d
		}
	}
	panic("bench: no stage " + name)
}

// serveOnce passes one request straight into a handler and returns the
// recorded reply.
func serveOnce(h http.Handler, cl *call) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, cl.path, bytes.NewReader(cl.body))
	req.Header.Set("Content-Type", cl.ctype)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// layerSuite measures every layer below the serving path from outside, on
// the run's dataset and on sum, the model summary.Build gave for it. The
// numbers do not depend on the workload; what a workload adds are the
// counters and spans of the path it drives.
func layerSuite(e *env, sum *summary.Summary, m metricSet, buildTrace *tracer) error {
	rel, sc := e.ds.rel, e.sc
	opts := sc.summaryOptions()
	mix := e.ds.newQueryMix(9)

	// relation
	m.set("relation.hist2d_ms", ms(best(3, func() { rel.Histogram2D(attrOrigin, attrDest) })))
	rows := newFlightGen(e.ds.seed + 1).rows(sc.ingestRows)
	delta := deltaRelation(rows)
	var mut *relation.Mutable
	m.set("relation.append_rows_us", us(best(3, func() {
		mut = e.ds.mutable()
		if _, err := mut.AppendRows(rows); err != nil {
			panic(err)
		}
	})))
	m.set("relation.freeze_us", us(perCall(100, func(int) { mut.Freeze() })))
	full, _ := mut.Freeze()

	// stats, polynomial, solver: the staged build, held to summary.Build.
	stages, set, sys, report, err := stagedBuild(rel, opts, buildTrace)
	if err != nil {
		return err
	}
	if !sameSystem(sys, sum.System()) {
		return fmt.Errorf("staged build differs from summary.Build")
	}
	m.set("stats.newset_ms", ms(stageTime(stages, "stats.newset")))
	m.set("stats.select_multi_ms", ms(stageTime(stages, "stats.select_multi")))
	m.set("stats.num_statistics", float64(set.NumStatistics()))
	m.set("polynomial.compress_ms", ms(stageTime(stages, "polynomial.compress")))
	m.set("polynomial.newsystem_ms", ms(stageTime(stages, "polynomial.newsystem")))
	size := sys.Poly().Size()
	m.set("polynomial.terms", float64(size.Terms))
	m.set("polynomial.factors", float64(size.CompressedFactors))
	m.set("solver.solve_cold_ms", ms(stageTime(stages, "solver.solve_cold")))
	m.set("solver.sweeps_cold", float64(report.Sweeps))
	m.set("solver.max_violation", report.MaxViolation)
	converged := 0.0
	if report.Converged {
		converged = 1
	}
	m.set("solver.converged", converged)

	rstages, rreport, err := stagedRefresh(sum, delta)
	if err != nil {
		return err
	}
	m.set("stats.apply_delta_us", us(stageTime(rstages, "stats.apply_delta")))
	m.set("solver.solve_warm_ms", ms(stageTime(rstages, "solver.solve_warm")))
	m.set("solver.sweeps_warm", float64(rreport.Sweeps))

	// polynomial evaluation by predicate shape
	const evals = 64
	for _, shape := range []struct {
		name   string
		attrs  int
		ranged int
	}{{"eval_1attr_us", 1, -1}, {"eval_2attr_us", 2, -1}, {"eval_3attr_us", 3, -1}, {"eval_range_us", 2, 0}} {
		var sets [][]int
		for _, set := range attrSubsets {
			if len(set) == shape.attrs {
				sets = append(sets, set)
			}
		}
		preds := make([]*query.Predicate, evals)
		for i := range preds {
			preds[i] = mix.predicate(sets[i%len(sets)], shape.ranged)
		}
		solved := sum.System()
		m.set("polynomial."+shape.name, us(perCall(evals, func(i int) { solved.Eval(preds[i]) })))
	}

	// summary
	counts := mix.counts(evals)
	m.set("summary.count_us", us(perCall(evals, func(i int) { _, _ = sum.EstimateCount(counts[i].Pred) })))
	m.set("summary.groupby_ms", ms(best(3, func() { _, _ = sum.EstimateGroupBy([]int{attrOrigin}, nil) })))
	m.set("summary.approx_bytes", float64(sum.ApproxBytes()))
	var refreshErr error
	m.set("summary.refresh_ms", ms(timeOf(func() {
		d, _ := full.Slice(rel.NumRows(), full.NumRows())
		_, _, refreshErr = sum.Refresh(full, d, summary.RefreshOptions{})
	})))
	if refreshErr != nil {
		return refreshErr
	}
	var payload bytes.Buffer
	m.set("summary.encode_us", us(best(5, func() {
		payload.Reset()
		if err := summary.EncodeEstimator(&payload, sum); err != nil {
			panic(err)
		}
	})))
	var decoded core.Estimator
	m.set("summary.decode_ms", ms(timeOf(func() { decoded, err = summary.DecodeEstimator(bytes.NewReader(payload.Bytes())) })))
	if err != nil {
		return err
	}
	for _, it := range counts {
		if !sameBits(inProcess(sum, it), inProcess(decoded, it)) {
			return fmt.Errorf("decoded summary differs from the built one")
		}
	}

	// store
	dir, err := os.MkdirTemp(e.tmpDir, "suite-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir + "/a")
	if err != nil {
		return err
	}
	st2, err := store.Open(dir + "/b")
	if err != nil {
		return err
	}
	m.set("store.save_ms", ms(timeOf(func() { _, err = st.Save(estimatorName, sum) })))
	if err != nil {
		return err
	}
	m.set("store.load_ms", ms(timeOf(func() { _, _, err = st.Load(estimatorName, 1) })))
	if err != nil {
		return err
	}
	var framed []byte
	m.set("store.read_framed_us", us(best(3, func() { framed, _, err = st.ReadFramed(estimatorName, 1) })))
	if err != nil {
		return err
	}
	m.set("store.import_framed_ms", ms(timeOf(func() { _, err = st2.ImportFramed(estimatorName, 1, framed) })))
	if err != nil {
		return err
	}

	// query codecs, on the requests and replies the workloads use
	jsonReqs, err := jsonCalls(counts)
	if err != nil {
		return err
	}
	batches, err := batchCalls(counts, sc.batch)
	if err != nil {
		return err
	}
	jsonBytes := 0
	for _, cl := range jsonReqs {
		jsonBytes += len(cl.body)
	}
	m.set("query.bytes_per_query_json", float64(jsonBytes)/float64(len(jsonReqs)))
	m.set("query.bytes_per_query_bin", float64(len(batches[0].body))/float64(len(batches[0].items)))
	m.set("query.json_decode_us", us(perCall(evals, func(i int) {
		var req server.QueryRequest
		_ = json.Unmarshal(jsonReqs[i].body, &req)
	})))
	jsonResp := server.QueryResponse{Estimator: estimatorName, Count: 12345.678901, LatencyNS: 43210}
	m.set("query.json_encode_us", us(perCall(evals, func(int) { _, _ = json.Marshal(jsonResp) })))
	m.set("query.canonical_key_us", us(perCall(evals, func(i int) { counts[i].Pred.CanonicalKey() })))
	first := batches[0]
	var frame []byte
	m.set("query.bin_encode_batch_us", us(perCall(evals, func(int) { frame, _ = query.AppendBatch(frame[:0], estimatorName, first.items) })))
	m.set("query.bin_decode_batch_us", us(perCall(evals, func(int) { _, _, _, _ = query.DecodeBatchAt(bytes.NewReader(first.body)) })))
	as := make([]query.BatchAnswer, len(first.items))
	for i, it := range first.items {
		as[i] = inProcess(sum, it)
	}
	m.set("query.bin_encode_answers_us", us(perCall(evals, func(int) { frame, _ = query.AppendAnswers(frame[:0], estimatorName, as) })))
	answerFrame := append([]byte(nil), frame...)
	m.set("query.bin_decode_answers_us", us(perCall(evals, func(int) { _, _, _ = query.DecodeAnswers(bytes.NewReader(answerFrame)) })))

	// server: straight into the handler with a recorder, cache off and on
	reg := server.NewRegistry()
	if err := reg.Register(estimatorName, sum, rel.Schema()); err != nil {
		return err
	}
	cold := server.New(reg, server.Options{CacheSize: -1}).Handler()
	warm := server.New(reg, server.Options{}).Handler()
	handlerQuery := perCall(evals, func(i int) { serveOnce(cold, jsonReqs[i]) })
	m.set("server.handler_query_us", us(handlerQuery))
	estimate := perCall(evals, func(i int) { _, _ = sum.EstimateCount(counts[i].Pred) })
	self := handlerQuery - estimate
	if self < 0 {
		self = 0
	}
	m.set("server.self_query_us", us(self))
	groupBy, err := jsonCall(query.BatchItem{GroupBy: []int{attrOrigin}})
	if err != nil {
		return err
	}
	m.set("server.handler_groupby_ms", ms(best(3, func() { serveOnce(cold, groupBy) })))
	m.set("server.handler_batch32_miss_us", us(best(5, func() { serveOnce(cold, first) })))
	serveOnce(warm, first)
	m.set("server.handler_batch32_hit_us", us(perCall(evals, func(int) { serveOnce(warm, first) })))

	cache := server.NewCache(4096)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = estimatorName + "\x00v1\x00c\x00" + strconv.Itoa(i)
	}
	m.set("server.cache_put_ns", float64(perCall(len(keys), func(i int) { cache.Put(keys[i], float64(i)) })))
	m.set("server.cache_get_ns", float64(perCall(len(keys), func(i int) { cache.Get(keys[i]) })))
	m.set("server.cache_invalidate_us", us(timeOf(func() { cache.InvalidatePrefix(estimatorName + "\x00") })))

	// live ingestion: the append, then the refresh it triggers, on a store
	liveReg := server.NewRegistry()
	if err := liveReg.Register(estimatorName, sum, rel.Schema()); err != nil {
		return err
	}
	live, err := server.NewLive(liveReg, datasetName, e.ds.mutable(), st, server.LiveOptions{
		Dataset: server.DatasetOptions{Summary: opts, SkipExact: true, Store: st},
	})
	if err != nil {
		return err
	}
	m.set("server.live_ingest_ms", ms(timeOf(func() { _, err = live.Ingest(rows) })))
	if err != nil {
		return err
	}
	m.set("server.live_refresh_ms", ms(timeOf(func() { _, err = live.Refresh() })))
	if err != nil {
		return err
	}
	history := server.NewHistory(st, 0, nil)
	m.set("server.history_restore_ms", ms(timeOf(func() { _, err = history.Get(estimatorName, 1) })))
	if err != nil {
		return err
	}

	// baselines: the exact scan and 1 % samples
	engine := exact.New(rel)
	m.set("exact.count_ms", ms(perCall(8, func(i int) { engine.Count(counts[i].Pred) })))
	uniform, err := sampling.Uniform(rel, 0.01, rand.New(rand.NewSource(e.ds.seed)))
	if err != nil {
		return err
	}
	stratified, err := sampling.Stratified(rel, []int{attrOrigin, attrDest}, 0.01, 1, rand.New(rand.NewSource(e.ds.seed)))
	if err != nil {
		return err
	}
	m.set("sampling.uniform_count_us", us(perCall(evals, func(i int) { uniform.Count(counts[i].Pred) })))
	for name, est := range map[string]core.Estimator{"uniform": uniform, "stratified": stratified} {
		acc, err := e.ds.scoreEstimator(est)
		if err != nil {
			return err
		}
		m.set("sampling."+name+"_err_heavy", acc.errHeavy)
		m.set("sampling."+name+"_err_light", acc.errLight)
		m.set("sampling."+name+"_f_rare", acc.fRare)
	}

	return scalingLadder(e, m)
}

// scalingLadder builds the model a quarter and twice as large in rows, and
// with a third and five thirds of the 2D statistic budget: the points of the
// build curve around the benchmark's own.
func scalingLadder(e *env, m metricSet) error {
	sc := e.sc
	build := func(rel *relation.Relation, perPair int) (*summary.Summary, time.Duration, error) {
		opts := sc.summaryOptions()
		opts.PerPairBudget = perPair
		start := time.Now()
		sum, err := summary.Build(rel, opts)
		return sum, time.Since(start), err
	}
	gen := newFlightGen(e.ds.seed)
	for _, step := range []struct {
		tag  string
		rows int
	}{{"r250k", sc.rows / 4}, {"r2m", sc.rows * 2}} {
		_, d, err := build(gen.relation(step.rows), sc.perPair)
		if err != nil {
			return err
		}
		m.set("summary.build_ms."+step.tag, ms(d))
		runtime.GC()
	}
	for _, step := range []struct {
		tag     string
		perPair int
	}{{"bs100", sc.perPair / 3}, {"bs500", sc.perPair * 5 / 3}} {
		sum, d, err := build(e.ds.rel, step.perPair)
		if err != nil {
			return err
		}
		m.set("summary.build_ms."+step.tag, ms(d))
		m.set("polynomial.terms."+step.tag, float64(sum.System().Poly().Size().Terms))
		if step.tag == "bs500" {
			var payload bytes.Buffer
			if err := summary.EncodeEstimator(&payload, sum); err != nil {
				return err
			}
			m.set("summary.decode_ms.bs500", ms(timeOf(func() { _, err = summary.DecodeEstimator(bytes.NewReader(payload.Bytes())) })))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// hostMetrics records what the host looked like when the run began.
func hostMetrics(m metricSet) {
	m.set("host.nproc", float64(runtime.NumCPU()))
	load := 0.0
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			load, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	m.set("host.loadavg_start", load)
}

// peakRSS reads VmHWM, the process's peak resident set, in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
