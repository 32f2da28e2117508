package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/store"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// timedPhase calls the session's segment until the minimum segment count is
// met and another segment would overshoot the time budget by more than it
// stays within it.
func timedPhase(s *session, budget time.Duration, minSegments int) []*segStats {
	runtime.GC()
	var segs []*segStats
	start := time.Now()
	for {
		segs = append(segs, s.segment())
		elapsed := time.Since(start)
		if len(segs) >= minSegments && elapsed+elapsed/time.Duration(2*len(segs)) >= budget {
			return segs
		}
	}
}

// quiet assembles, from many runs of one segment, the segment as it goes when
// nothing disturbs it. Part k of a segment does the same work every time, and
// noise on a shared host only adds time (it comes in bursts of a second or
// two, a fifth to a third slower), so each part is taken from the run that
// had it best: the quiet segment's duration is the sum over the parts of the
// shortest time any run needed, and its read round trip is the median over
// the parts of the lowest median round trip any run saw in that part. That
// repeats from run to run where the mean, the median or the fastest of whole
// segments does not. Runs that were cut differently (a solve that took
// another number of sweeps) are each taken as one part.
func quiet(segs []*segStats) (time.Duration, time.Duration) {
	for _, st := range segs {
		if len(st.steps) != len(segs[0].steps) {
			whole := make([]*segStats, len(segs))
			for i, st := range segs {
				whole[i] = &segStats{steps: []time.Duration{st.elapsed}, stepReads: []int{len(st.reads)}, reads: st.reads}
			}
			return quiet(whole)
		}
	}
	var (
		total   time.Duration
		medians []time.Duration
	)
	for k := range segs[0].steps {
		shortest, lowest := time.Duration(-1), time.Duration(-1)
		for _, st := range segs {
			if shortest < 0 || st.steps[k] < shortest {
				shortest = st.steps[k]
			}
			from := 0
			if k > 0 {
				from = st.stepReads[k-1]
			}
			if reads := st.reads[from:st.stepReads[k]]; len(reads) > 0 {
				if med := medianDuration(reads); lowest < 0 || med < lowest {
					lowest = med
				}
			}
		}
		total += shortest
		if lowest >= 0 {
			medians = append(medians, lowest)
		}
	}
	return total, medianOr(medians, total)
}

// accuracyPass asks the accuracy queries through the workload's serving path
// and records the paper's three measures.
func accuracyPass(e *env, s *session, m metricSet, res *result) error {
	got, err := s.ask(e.ds.accuracyItems())
	if err != nil {
		return err
	}
	counts := make([]float64, len(got))
	for i, a := range got {
		res.Attempted++
		if a.Error != "" {
			res.Failed++
		}
		counts[i] = a.Count
	}
	acc := e.ds.score(counts)
	m.set("err_heavy", acc.errHeavy)
	m.set("err_light", acc.errLight)
	m.set("f_rare", acc.fRare)
	return nil
}

// verify asks every query of the pool through the serving path and holds the
// answers to the in-process estimator, then checks that the cells of each
// unfiltered single-attribute group-by sum to the count.
func verify(s *session) (attempted, wrong int, err error) {
	items := append([]query.BatchItem(nil), s.pool...)
	for a := 0; a < numAttrs; a++ {
		items = append(items, query.BatchItem{GroupBy: []int{a}})
	}
	got, err := s.ask(items)
	if err != nil {
		return 0, 0, err
	}
	ref := s.reference()
	total, err := ref.EstimateCount(nil)
	if err != nil {
		return 0, 0, err
	}
	// A pool may draw one query many times; the estimator answers it once.
	want := make(map[string]query.BatchAnswer)
	for i, it := range items {
		attempted++
		key := itemKey(it)
		if _, seen := want[key]; !seen {
			want[key] = inProcess(ref, it)
		}
		ok := sameBits(want[key], got[i])
		if it.Pred == nil && len(it.GroupBy) == 1 {
			sum := 0.0
			for _, g := range got[i].Groups {
				sum += g.Estimate
			}
			ok = ok && almostEqual(sum, total, 1e-6)
		}
		if !ok {
			wrong++
		}
	}
	return attempted, wrong, nil
}

// almostEqual reports whether a and b agree within a relative tolerance.
func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// framedSize is the size of the estimator's framed snapshot.
func framedSize(e *env, s *session) (int, error) {
	dir, err := os.MkdirTemp(e.tmpDir, "frame-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	if _, err := st.Save(estimatorName, s.base); err != nil {
		return 0, err
	}
	framed, _, err := st.ReadFramed(estimatorName, 0)
	return len(framed), err
}

// runWorkload sets the workload up, times it, checks its answers and returns
// the result line; progress goes to log.
func runWorkload(cfg config, log io.Writer) (result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sc := fullScale
	if cfg.quick {
		sc = quickScale
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	tmpDir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmpDir)

	m := metricSet{}
	var tr *tracer
	setups := sc.setups
	if cfg.trace {
		tr = newTracer()
		setups = 1
		hostMetrics(m)
	}

	// Set-up, several times over. The median is the reported set-up time, and
	// each set-up is timed for its share of the run, so the timed segments
	// span the whole run and not only its end: on a shared host whose speed
	// drifts over seconds, that gives each part of a segment more chances at
	// a quiet moment. The accuracy measures are read through the last
	// set-up's serving path before its warm-up, so the caches start the timed
	// phase as the warm-up leaves them, and before any ingest moves the data
	// away from the exact answers; that pass is not set-up time.
	var (
		e          *env
		s          *session
		setupTimes []float64
		segs       []*segStats

		cacheBefore, cacheAfter cacheCounters
	)
	res := result{Metrics: map[string]metricValue{}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 3
	}
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		start := time.Now()
		e = &env{ds: newDataset(sc, cfg.seed), sc: sc, tmpDir: tmpDir, tr: tr}
		s, err = w.setup(e)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(start)
		if i == setups-1 && !cfg.trace {
			if err := accuracyPass(e, s, m, &res); err != nil {
				return result{}, fmt.Errorf("%s: accuracy pass: %w", w.name, err)
			}
		}
		if s.warm != nil {
			start = time.Now()
			s.warm()
			took += time.Since(start)
		}
		setupTimes = append(setupTimes, secs(took))
		fmt.Fprintf(log, "# set-up %d: %.3f s (build %.3f s), fingerprint %016x, %d terms\n",
			i+1, secs(took), secs(s.buildTime), fingerprint(e.ds.rel), s.base.System().Poly().NumTerms())

		cacheBefore.read(s)
		segs = append(segs, timedPhase(s, budget/time.Duration(setups), (sc.minSegments+setups-1)/setups)...)
		cacheAfter.read(s)
	}
	defer s.close()

	all := &segStats{}
	for _, st := range segs {
		all.merge(st)
	}
	res.Attempted += all.ops
	res.Failed += all.failed
	fmt.Fprintf(log, "# timed %d segments, %d ops, %d failed; ops/s and read p50 (us) by segment:", len(segs), all.ops, all.failed)
	for _, st := range segs {
		fmt.Fprintf(log, " %.6g/%.6g", float64(st.ops-st.failed)/st.elapsed.Seconds(), us(medianDuration(st.reads)))
	}
	fmt.Fprintln(log)

	attempted, wrong, err := verify(s)
	if err != nil {
		return result{}, fmt.Errorf("%s: verification pass: %w", w.name, err)
	}
	res.Attempted += attempted
	res.Failed += wrong
	fmt.Fprintf(log, "# verified %d answers, %d wrong\n", attempted, wrong)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := tracedMetrics(cfg, e, s, tr, all, cacheBefore, cacheAfter, m); err != nil {
			return result{}, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	} else {
		m.set("setup_s", metrics.Median(setupTimes))
		quietTime, quietRead := quiet(segs)
		m.set("ops_per_s", float64(all.ops-all.failed)/float64(len(segs))/quietTime.Seconds())
		m.set("p50_us", us(quietRead))
		size, err := framedSize(e, s)
		if err != nil {
			return result{}, err
		}
		m.set("summary_bytes", float64(size))
		rss, err := peakRSS()
		if err != nil {
			return result{}, err
		}
		m.set("peak_rss_mb", rss)
	}
	if err := m.check(defs); err != nil {
		return result{}, err
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
