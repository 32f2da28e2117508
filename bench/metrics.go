package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark with its unit and the
// direction in which it improves. BENCHMARK.json lists the same names; the
// smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// all of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"summary_bytes", "bytes", "lower"},
	{"err_heavy", "ratio", "lower"},
	{"err_light", "ratio", "lower"},
	{"f_rare", "ratio", "higher"},
}

// perLayer are the metrics of single layers, measured from outside by timing
// public calls. Every workload reports all of them on a traced run; a layer
// the workload never reaches reports 0.
var perLayer = []metricDef{
	{"relation.hist2d_ms", "ms", "lower"},
	{"relation.append_rows_us", "us", "lower"},
	{"relation.freeze_us", "us", "lower"},

	{"stats.newset_ms", "ms", "lower"},
	{"stats.select_multi_ms", "ms", "lower"},
	{"stats.apply_delta_us", "us", "lower"},
	{"stats.num_statistics", "count", "lower"},

	{"polynomial.compress_ms", "ms", "lower"},
	{"polynomial.newsystem_ms", "ms", "lower"},
	{"polynomial.terms", "count", "lower"},
	{"polynomial.factors", "count", "lower"},
	{"polynomial.eval_1attr_us", "us", "lower"},
	{"polynomial.eval_2attr_us", "us", "lower"},
	{"polynomial.eval_3attr_us", "us", "lower"},
	{"polynomial.eval_range_us", "us", "lower"},

	{"solver.solve_cold_ms", "ms", "lower"},
	{"solver.solve_warm_ms", "ms", "lower"},
	{"solver.sweeps_cold", "count", "lower"},
	{"solver.sweeps_warm", "count", "lower"},
	{"solver.max_violation", "ratio", "lower"},
	{"solver.converged", "count", "higher"},

	{"summary.build_ms", "ms", "lower"},
	{"summary.refresh_ms", "ms", "lower"},
	{"summary.encode_us", "us", "lower"},
	{"summary.decode_ms", "ms", "lower"},
	{"summary.count_us", "us", "lower"},
	{"summary.groupby_ms", "ms", "lower"},
	{"summary.approx_bytes", "bytes", "lower"},
	{"summary.build_ms.r250k", "ms", "lower"},
	{"summary.build_ms.r2m", "ms", "lower"},
	{"summary.build_ms.bs100", "ms", "lower"},
	{"summary.build_ms.bs500", "ms", "lower"},
	{"summary.decode_ms.bs500", "ms", "lower"},
	{"polynomial.terms.bs100", "count", "lower"},
	{"polynomial.terms.bs500", "count", "lower"},

	{"query.json_decode_us", "us", "lower"},
	{"query.json_encode_us", "us", "lower"},
	{"query.canonical_key_us", "us", "lower"},
	{"query.bin_encode_batch_us", "us", "lower"},
	{"query.bin_decode_batch_us", "us", "lower"},
	{"query.bin_encode_answers_us", "us", "lower"},
	{"query.bin_decode_answers_us", "us", "lower"},
	{"query.bytes_per_query_json", "bytes", "lower"},
	{"query.bytes_per_query_bin", "bytes", "lower"},

	{"store.save_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"store.read_framed_us", "us", "lower"},
	{"store.import_framed_ms", "ms", "lower"},

	{"server.handler_query_us", "us", "lower"},
	{"server.handler_groupby_ms", "ms", "lower"},
	{"server.handler_batch32_hit_us", "us", "lower"},
	{"server.handler_batch32_miss_us", "us", "lower"},
	{"server.self_query_us", "us", "lower"},
	{"server.cache_get_ns", "ns", "lower"},
	{"server.cache_put_ns", "ns", "lower"},
	{"server.cache_invalidate_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.cache_evictions", "count", "lower"},
	{"server.live_ingest_ms", "ms", "lower"},
	{"server.live_refresh_ms", "ms", "lower"},
	{"server.history_restore_ms", "ms", "lower"},
	{"server.rejected_503", "count", "lower"},
	{"server.timeouts_504", "count", "lower"},

	{"fleet.router_hit_us", "us", "lower"},
	{"fleet.router_miss_us", "us", "lower"},
	{"fleet.router_tax_us", "us", "lower"},
	{"fleet.cache_hit_ratio", "ratio", "higher"},
	{"fleet.cache_stale_skips", "count", "lower"},
	{"fleet.singleflight_collapsed", "count", "higher"},
	{"fleet.retries", "count", "lower"},
	{"fleet.sync_once_ms", "ms", "lower"},

	{"client.rtt_query_us", "us", "lower"},
	{"client.transport_us", "us", "lower"},
	{"client.p90_us", "us", "lower"},
	{"client.p99_us", "us", "lower"},
	{"client.max_us", "us", "lower"},
	{"client.write_p50_us", "us", "lower"},
	{"client.read_miss_p50_us", "us", "lower"},
	{"client.bytes_out_per_query", "bytes", "lower"},
	{"client.bytes_in_per_query", "bytes", "lower"},

	{"exact.count_ms", "ms", "lower"},
	{"sampling.uniform_count_us", "us", "lower"},
	{"sampling.uniform_err_heavy", "ratio", "lower"},
	{"sampling.uniform_err_light", "ratio", "lower"},
	{"sampling.uniform_f_rare", "ratio", "higher"},
	{"sampling.stratified_err_heavy", "ratio", "lower"},
	{"sampling.stratified_err_light", "ratio", "lower"},
	{"sampling.stratified_f_rare", "ratio", "higher"},

	{"trace.overhead_ratio", "ratio", "lower"},
	{"host.nproc", "count", "higher"},
	{"host.loadavg_start", "ratio", "lower"},
}

// metricSet collects the values of one run, each name set once.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("bench: metric %q set twice", name))
	}
	m[name] = v
}

// Durations in the units the metric names carry.
func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }

// check reports a metric of defs that was not measured, or a measured one
// that defs does not list.
func (m metricSet) check(defs []metricDef) error {
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.name] = true
		if _, ok := m[d.name]; !ok {
			return fmt.Errorf("bench: metric %q was not measured", d.name)
		}
	}
	var extra []string
	for name := range m {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("bench: metrics %v are not in the catalogue", extra)
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of durations in ascending
// order.
func quantile(asc []time.Duration, q float64) time.Duration {
	if len(asc) == 0 {
		return 0
	}
	i := int(q*float64(len(asc))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// sorted returns the durations in ascending order, leaving ds as it is: the
// order of a segment's reads says which part of the segment made them.
func sorted(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianDuration returns the median of ds, 0 when there are none.
func medianDuration(ds []time.Duration) time.Duration {
	return quantile(sorted(ds), 0.5)
}

// medianOr returns the median of read round trips, or whole when the
// workload makes no read request (build-cold): its operation's round trip
// then stands for the read's.
func medianOr(reads []time.Duration, whole time.Duration) time.Duration {
	if len(reads) == 0 {
		return whole
	}
	return medianDuration(reads)
}
