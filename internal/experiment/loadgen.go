package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// LoadOptions configure DriveHTTP.
type LoadOptions struct {
	// Concurrency is the number of in-flight requests (default GOMAXPROCS).
	Concurrency int
	// Repeat replays the workload this many times (default 1). Repeats > 1
	// re-issue identical queries, so they measure the server's cache path.
	Repeat int
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// Batch > 1 groups that many workload queries into one binary POST
	// /query/batch round trip (0 or 1 keeps the JSON single-query
	// endpoints).
	Batch int
	// Routers lists alternative base URLs that request slots rotate
	// through round-robin (slot j targets Routers[j % len]); they must
	// front the same fleet or answers will diverge. Empty keeps every
	// request on DriveHTTP's baseURL argument.
	Routers []string
}

// targetFor returns the base URL request slot j should hit.
func (o *LoadOptions) targetFor(baseURL string, j int) string {
	if len(o.Routers) == 0 {
		return baseURL
	}
	return strings.TrimRight(o.Routers[j%len(o.Routers)], "/")
}

// LoadResult aggregates one load-generation run; it is the payload
// cmd/loadgen prints and the number source of BENCH.md's serving table.
type LoadResult struct {
	Estimator string `json:"estimator"`
	// Requests counts the queries the round trips carried, and
	// HTTPRequests those round trips. With batching each round trip
	// carries several queries, so Requests >= HTTPRequests and
	// ThroughputQPS is always queries per second.
	Requests      int     `json:"requests"`
	HTTPRequests  int     `json:"http_requests"`
	Errors        int     `json:"errors"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	ThroughputQPS float64 `json:"throughput_qps"`
	// BatchSize is LoadOptions.Batch on batched runs. Bytes are summed over
	// the requests' and responses' bodies — the wire-format tax per query
	// is (BytesOut+BytesIn)/Requests.
	BatchSize     int   `json:"batch_size,omitempty"`
	BytesOut      int64 `json:"bytes_out,omitempty"`
	BytesIn       int64 `json:"bytes_in,omitempty"`
	LatencyP50NS  int64 `json:"latency_p50_ns"`
	LatencyP95NS  int64 `json:"latency_p95_ns"`
	LatencyMeanNS int64 `json:"latency_mean_ns"`
	// CachedResponses counts answers the server reported as cache hits.
	CachedResponses int `json:"cached_responses"`
	// FirstError carries one representative failure for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// call is one pre-encoded read round trip carrying queries workload
// queries: a JSON single read or a binary batch.
type call struct {
	path, contentType string
	body              []byte
	queries           int
}

// DriveHTTP replays the workload against a running summaryd instance at
// baseURL, fanning requests out over a bounded set of workers, and returns
// client-side throughput and latency aggregates. It is the HTTP face of
// the same workloads Run scores in-process, which makes serving overhead
// directly comparable to direct Estimator calls.
//
// Every body is encoded once up front, so the measured path is pure
// request/response handling: one JSON POST /query or /groupby per query, or
// with Batch > 1 one binary POST /query/batch per Batch queries. Accounting
// is per query (Requests, Errors, ThroughputQPS) with latency quantiles per
// round trip.
func DriveHTTP(baseURL, estimator string, workload []Query, opts LoadOptions) (*LoadResult, error) {
	if len(workload) == 0 {
		return nil, fmt.Errorf("experiment: the workload is empty")
	}
	if estimator == "" {
		return nil, fmt.Errorf("experiment: an estimator name is required")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}
	if opts.Repeat <= 0 {
		opts.Repeat = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	reads, err := readCalls(estimator, workload, opts.Batch)
	if err != nil {
		return nil, err
	}

	client := newLoadClient(opts)
	total := len(reads) * opts.Repeat
	// -1 marks round trips that failed in transport; they are excluded from
	// the latency quantiles.
	latencies := make([]int64, total)
	res := &LoadResult{Estimator: estimator, HTTPRequests: total}
	for j := range latencies {
		latencies[j] = -1
		res.Requests += reads[j%len(reads)].queries
	}
	if opts.Batch > 1 {
		res.BatchSize = opts.Batch
	}
	var mu sync.Mutex
	jobs := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				c := reads[j%len(reads)]
				t0 := time.Now()
				status, body, err := post(client, opts.targetFor(baseURL, j)+c.path, c)
				ns := time.Since(t0).Nanoseconds()
				if status != 0 {
					latencies[j] = ns
				}
				errs, cached, msg := c.outcome(status, body, err)
				mu.Lock()
				res.Errors += errs
				res.CachedResponses += cached
				res.BytesOut += int64(len(c.body))
				res.BytesIn += int64(len(body))
				if res.FirstError == "" {
					res.FirstError = msg
				}
				mu.Unlock()
			}
		}()
	}
	for j := 0; j < total; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	res.ElapsedNS = elapsed.Nanoseconds()
	if secs := elapsed.Seconds(); secs > 0 {
		res.ThroughputQPS = float64(res.Requests) / secs
	}
	measured := latencies[:0]
	for _, l := range latencies {
		if l >= 0 {
			measured = append(measured, l)
		}
	}
	if n := len(measured); n > 0 {
		var sum int64
		for _, l := range measured {
			sum += l
		}
		res.LatencyMeanNS = sum / int64(n)
		sort.Slice(measured, func(i, j int) bool { return measured[i] < measured[j] })
		res.LatencyP50NS = measured[int(0.50*float64(n-1))]
		res.LatencyP95NS = measured[int(0.95*float64(n-1))]
	}
	return res, nil
}

// readCalls encodes the workload once: one JSON single read per query, or
// binary batches of batch queries when batch > 1.
func readCalls(estimator string, workload []Query, batch int) ([]call, error) {
	var calls []call
	if batch <= 1 {
		for _, q := range workload {
			path := "/query"
			var req interface{} = server.QueryRequest{Estimator: estimator, Predicate: q.Pred}
			if q.IsGroupBy() {
				path = "/groupby"
				req = server.GroupByRequest{Estimator: estimator, Predicate: q.Pred, GroupBy: q.GroupBy}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, fmt.Errorf("experiment: marshal %s: %w", q.Name, err)
			}
			calls = append(calls, call{path: path, contentType: "application/json", body: body, queries: 1})
		}
		return calls, nil
	}
	for off := 0; off < len(workload); off += batch {
		chunk := workload[off:min(off+batch, len(workload))]
		items := make([]query.BatchItem, len(chunk))
		for i, q := range chunk {
			items[i] = query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy}
		}
		body, err := query.AppendBatch(nil, estimator, items)
		if err != nil {
			return nil, fmt.Errorf("experiment: encode batch frame: %w", err)
		}
		calls = append(calls, call{path: "/query/batch", contentType: server.BinaryBatchContentType,
			body: body, queries: len(chunk)})
	}
	return calls, nil
}

// post sends one call and reads its reply to the end; status is 0 when the
// request failed in transport.
func post(client *http.Client, url string, c call) (int, []byte, error) {
	resp, err := client.Post(url, c.contentType, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// outcome scores a read's reply: how many of its queries failed and how
// many the server answered from a cache, plus one failure message.
func (c call) outcome(status int, body []byte, err error) (errs, cached int, msg string) {
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		// A failed round trip loses every query it carried.
		return c.queries, 0, err.Error()
	}
	if c.contentType != server.BinaryBatchContentType {
		var probe struct {
			Cached bool `json:"cached"`
		}
		if json.Unmarshal(body, &probe) == nil && probe.Cached {
			cached = 1
		}
		return 0, cached, ""
	}
	_, answers, err := query.DecodeAnswers(bytes.NewReader(body))
	if err != nil {
		return c.queries, 0, err.Error()
	}
	for _, a := range answers {
		if a.Error != "" {
			errs++
			msg = a.Error
		}
		if a.Cached {
			cached++
		}
	}
	return errs, cached, msg
}

// newLoadClient builds an HTTP client whose transport keeps one idle
// connection per worker: the stock transport caps idle connections per
// host at 2, so any Concurrency above that re-dials TCP mid-run and the
// handshake tax dominates what should be a serving measurement.
func newLoadClient(opts LoadOptions) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        2 * opts.Concurrency,
		MaxIdleConnsPerHost: opts.Concurrency,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Timeout: opts.Timeout, Transport: tr}
}
