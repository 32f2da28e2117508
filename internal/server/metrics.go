package server

import (
	"sort"
	"sync/atomic"
	"time"
)

// latencyWindow is how many recent request latencies the quantile estimates
// are computed over. A power of two keeps the ring index arithmetic cheap.
const latencyWindow = 8192

// Metrics accumulates server-side request accounting: totals, errors, a
// sliding window of latencies for p50/p95 estimation, and batch-shape
// histograms. Everything is atomic — Record on the hot path never takes a
// lock, and a concurrent /metrics read never stalls a request. The ring is
// racy by design: a reader may observe a slot mid-rotation, which skews a
// quantile estimate by one sample at worst.
type Metrics struct {
	start    time.Time
	requests atomic.Uint64
	errors   atomic.Uint64

	ring [latencyWindow]atomic.Int64 // nanoseconds, circular
	next atomic.Uint64               // total writes; next slot = next % latencyWindow

	batchRequests atomic.Uint64 // /query/batch calls
	batchQueries  atomic.Uint64 // queries carried by those calls

	batchSize     histogram // queries per batch call
	bytesPerQuery histogram // request body bytes / batch size
}

// histogram is a fixed-bound cumulative histogram with atomic buckets.
// Bounds are "less or equal"; the final implicit bucket is +Inf.
type histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
}

func newHistogram(bounds []uint64) histogram {
	return histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(v uint64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// HistogramBucket is one exported histogram bin: the count of observations
// with value <= LE. LE = 0 marks the +Inf overflow bucket.
type HistogramBucket struct {
	LE    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

func (h *histogram) snapshot() []HistogramBucket {
	out := make([]HistogramBucket, 0, len(h.bounds)+1)
	total := uint64(0)
	for i, b := range h.bounds {
		if n := h.counts[i].Load(); n > 0 {
			out = append(out, HistogramBucket{LE: b, Count: n})
			total += n
		}
	}
	if n := h.counts[len(h.bounds)].Load(); n > 0 {
		out = append(out, HistogramBucket{LE: 0, Count: n})
		total += n
	}
	if total == 0 {
		return nil
	}
	return out
}

// NewMetrics returns a metrics accumulator anchored at now.
func NewMetrics(now time.Time) *Metrics {
	return &Metrics{
		start:         now,
		batchSize:     newHistogram([]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}),
		bytesPerQuery: newHistogram([]uint64{16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}),
	}
}

// Record accounts one served request with the given handling latency.
func (m *Metrics) Record(d time.Duration, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	slot := (m.next.Add(1) - 1) % latencyWindow
	m.ring[slot].Store(d.Nanoseconds())
}

// RecordBatch accounts one /query/batch call: how many queries it carried
// and how many request-body bytes it took.
func (m *Metrics) RecordBatch(queries int, bodyBytes int64) {
	m.batchRequests.Add(1)
	if queries <= 0 {
		return
	}
	m.batchQueries.Add(uint64(queries))
	m.batchSize.observe(uint64(queries))
	if bodyBytes > 0 {
		m.bytesPerQuery.observe(uint64(bodyBytes) / uint64(queries))
	}
}

// MetricsSnapshot is the request-side portion of the /metrics payload.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	RequestsTotal uint64  `json:"requests_total"`
	ErrorsTotal   uint64  `json:"errors_total"`
	QPS           float64 `json:"qps"`
	// Latency quantiles are computed over the most recent latencyWindow
	// requests; zero when nothing has been served yet.
	LatencyP50NS  int64 `json:"latency_p50_ns"`
	LatencyP95NS  int64 `json:"latency_p95_ns"`
	LatencyMaxNS  int64 `json:"latency_max_ns"`
	WindowSamples int   `json:"window_samples"`
	// Batch accounting: totals plus the shape histograms (omitted until the
	// first batch call arrives).
	BatchRequestsTotal uint64            `json:"batch_requests_total"`
	BatchQueriesTotal  uint64            `json:"batch_queries_total"`
	BatchSizeHist      []HistogramBucket `json:"batch_size_hist,omitempty"`
	BytesPerQueryHist  []HistogramBucket `json:"bytes_per_query_hist,omitempty"`
}

// Snapshot computes the exported view at time now.
func (m *Metrics) Snapshot(now time.Time) MetricsSnapshot {
	s := MetricsSnapshot{
		RequestsTotal:      m.requests.Load(),
		ErrorsTotal:        m.errors.Load(),
		BatchRequestsTotal: m.batchRequests.Load(),
		BatchQueriesTotal:  m.batchQueries.Load(),
		BatchSizeHist:      m.batchSize.snapshot(),
		BytesPerQueryHist:  m.bytesPerQuery.snapshot(),
	}
	filled := int(m.next.Load())
	if filled > latencyWindow {
		filled = latencyWindow
	}
	s.WindowSamples = filled
	lat := make([]int64, filled)
	for i := range lat {
		lat[i] = m.ring[i].Load()
	}

	if up := now.Sub(m.start).Seconds(); up > 0 {
		s.UptimeSeconds = up
		s.QPS = float64(s.RequestsTotal) / up
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.LatencyP50NS = quantile(lat, 0.50)
		s.LatencyP95NS = quantile(lat, 0.95)
		s.LatencyMaxNS = lat[len(lat)-1]
	}
	return s
}

// quantile returns the nearest-rank q-quantile of the sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
