package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// span is one timed call into a layer. Inline spans wrap the call where it
// happens, so their interval is the real one. Reissued spans time a call the
// benchmark cannot wrap (it happens inside the program) by making it again
// with the same input; their duration is measured, and their interval is
// laid inside the parent's, cut to fit.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the outermost span of an op
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Reissued bool   `json:"reissued,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps the spans of a traced run in memory. The traced pass sends
// one request at a time, so at any moment the open spans form one chain and
// a new span's parent is the innermost open one.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []int // ids of the open spans, outermost first
	op    int
	// inputs holds, per span id, what a reissued child needs to repeat the
	// call: the request and response bytes of a handler span, or the query
	// of an estimator span.
	inputs map[int]spanInput
}

type spanInput struct {
	path     string
	request  []byte
	response []byte
	item     query.BatchItem
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inputs: make(map[int]spanInput)}
}

// begin opens a span under the innermost open span; -1 means tracing is off.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.op++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartNS: now})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) input(id int) spanInput {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inputs[id]
}

func (t *tracer) setInput(id int, in spanInput) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.inputs[id] = in
	t.mu.Unlock()
}

// reissue times fn and records it as a child of parent, laid at the given
// offset into the parent's interval (from the end when fromEnd is set).
func (t *tracer) reissue(parent int, name string, offset time.Duration, fromEnd bool, fn func()) {
	start := time.Now()
	fn()
	t.lay(parent, name, offset, time.Since(start), fromEnd)
}

// lay records a reissued child of parent that took d, cut to fit inside the
// parent's interval.
func (t *tracer) lay(parent int, name string, offset, d time.Duration, fromEnd bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	lo := p.StartNS + offset.Nanoseconds()
	if fromEnd {
		lo = p.EndNS - offset.Nanoseconds() - d.Nanoseconds()
	}
	hi := lo + d.Nanoseconds()
	if lo < p.StartNS {
		lo = p.StartNS
	}
	if hi > p.EndNS {
		hi = p.EndNS
	}
	if hi < lo {
		hi = lo
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: p.Op, Name: name, StartNS: lo, EndNS: hi, Reissued: true})
}

// middleware records one span per request served by h. The request body is
// read before the span opens and the response is copied as it is written, so
// the codec calls can be reissued on the same bytes.
func (t *tracer) middleware(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		tee := &teeWriter{ResponseWriter: w}
		id := t.begin(name)
		h.ServeHTTP(tee, r)
		t.end(id)
		t.setInput(id, spanInput{path: r.URL.Path, request: body, response: tee.buf.Bytes()})
	})
}

type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// tracedEstimator records one span per estimator call the server makes, with
// the query, so the polynomial evaluation under it can be reissued.
type tracedEstimator struct {
	core.Estimator
	t *tracer
}

func (e tracedEstimator) EstimateCount(pred *query.Predicate) (float64, error) {
	id := e.t.begin("summary.estimate_count")
	v, err := e.Estimator.EstimateCount(pred)
	e.t.end(id)
	e.t.setInput(id, spanInput{item: query.BatchItem{Pred: pred}})
	return v, err
}

func (e tracedEstimator) EstimateGroupBy(groupAttrs []int, pred *query.Predicate) ([]core.GroupEstimate, error) {
	id := e.t.begin("summary.estimate_groupby")
	v, err := e.Estimator.EstimateGroupBy(groupAttrs, pred)
	e.t.end(id)
	e.t.setInput(id, spanInput{item: query.BatchItem{Pred: pred, GroupBy: groupAttrs}})
	return v, err
}

// selfTimes returns, per span id, the span's duration minus the part its
// child spans cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerOf is the layer a span name belongs to: the part before the dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfUSByLayer sums self time by layer over all spans, in µs.
	SelfUSByLayer map[string]float64 `json:"self_us_by_layer"`
	Spans         []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	spans := t.snapshot()
	out := traceFile{Workload: workload, Seed: seed, SelfUSByLayer: map[string]float64{}, Spans: spans}
	for i, d := range selfTimes(spans) {
		out.SelfUSByLayer[layerOf(spans[i].Name)] += us(d)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
