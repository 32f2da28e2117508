package main

import (
	"time"
)

// cacheCounters is a reading of the hit and miss counters of the caches a
// workload runs through; two readings bracket the timed phase.
type cacheCounters struct {
	nodeHits, nodeMisses, nodeEvictions       uint64
	routerHits, routerMisses                  uint64
	routerStale, routerCollapsed, routerRetry uint64
}

func (c *cacheCounters) read(s *session) {
	if s.nodeCache != nil {
		st := s.nodeCache()
		c.nodeHits, c.nodeMisses, c.nodeEvictions = st.Hits, st.Misses, st.Evictions
	}
	if s.routerMetrics != nil {
		if m, err := s.routerMetrics(); err == nil {
			c.routerStale, c.routerCollapsed, c.routerRetry = m.StaleSkips, m.Collapsed, m.Retries
			if m.Cache != nil {
				c.routerHits, c.routerMisses = m.Cache.Hits, m.Cache.Misses
			}
		}
	}
}

// hitRatio is hits over lookups, 0 when there were none.
func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// tracedMetrics makes the traced pass over the workload's sample, reissues
// the calls below it, runs the layer suite and fills in every per-layer
// metric. all holds the timed phase's measurements.
func tracedMetrics(cfg config, e *env, s *session, tr *tracer, all *segStats, before, after cacheCounters, m metricSet) error {
	// The workload's own counters, over the timed phase.
	m.set("server.cache_hit_ratio", hitRatio(after.nodeHits-before.nodeHits, after.nodeMisses-before.nodeMisses))
	m.set("server.cache_evictions", float64(after.nodeEvictions-before.nodeEvictions))
	m.set("server.rejected_503", float64(all.s503))
	m.set("server.timeouts_504", float64(all.s504))
	m.set("fleet.cache_hit_ratio", hitRatio(after.routerHits-before.routerHits, after.routerMisses-before.routerMisses))
	m.set("fleet.cache_stale_skips", float64(after.routerStale))
	m.set("fleet.singleflight_collapsed", float64(after.routerCollapsed))
	m.set("fleet.retries", float64(after.routerRetry))
	m.set("fleet.sync_once_ms", ms(s.syncTime))
	m.set("fleet.router_hit_us", us(medianDuration(all.hitReads)))
	var routerMisses []time.Duration
	if s.routerMetrics != nil {
		routerMisses = all.missReads
	}
	m.set("fleet.router_miss_us", us(medianDuration(routerMisses)))

	reads := sorted(all.reads)
	m.set("client.p90_us", us(quantile(reads, 0.90)))
	m.set("client.p99_us", us(quantile(reads, 0.99)))
	m.set("client.max_us", us(quantile(reads, 1)))
	m.set("client.write_p50_us", us(medianDuration(all.writes)))
	m.set("client.read_miss_p50_us", us(medianDuration(all.missReads)))
	perQuery := func(bytes int64) float64 {
		if all.readItems == 0 {
			return 0
		}
		return float64(bytes) / float64(all.readItems)
	}
	m.set("client.bytes_out_per_query", perQuery(all.bytesOut))
	m.set("client.bytes_in_per_query", perQuery(all.bytesIn))

	// The sample, with tracing off and then on: the difference between the
	// two passes is what tracing costs.
	sample := func(on bool) *segStats {
		if s.warm != nil {
			s.warm()
		}
		tr.on.Store(on)
		defer tr.on.Store(false)
		return s.sample()
	}
	sample(false) // brings the sample's own path up to speed
	plain := sample(false)
	traced := sample(true)
	s.reissue(tr)
	rtt := medianOr(plain.reads, plain.elapsed)
	m.set("client.rtt_query_us", us(rtt))
	m.set("trace.overhead_ratio", float64(medianOr(traced.reads, traced.elapsed))/float64(rtt)-1)

	// Transport is the part of a round trip no server-side span covers; the
	// router's tax is the part of its span the node's handler does not.
	spans := tr.snapshot()
	outerChild := make(map[int]time.Duration) // span id → duration of its inline children
	for _, sp := range spans {
		if sp.Parent >= 0 && !sp.Reissued {
			outerChild[sp.Parent] += sp.dur()
		}
	}
	var transport, tax []time.Duration
	for _, sp := range spans {
		covered, has := outerChild[sp.ID]
		switch {
		case sp.Name == "client.round_trip" && has:
			transport = append(transport, sp.dur()-covered)
		case sp.Name == "fleet.router" && has:
			tax = append(tax, sp.dur()-covered)
		}
	}
	m.set("client.transport_us", us(medianDuration(transport)))
	m.set("fleet.router_tax_us", us(medianDuration(tax)))

	// The layers below the serving path. On build-cold the staged build is
	// the traced operation, so its stages leave spans.
	var buildTrace *tracer
	if cfg.workload == "build-cold" {
		buildTrace = tr
		tr.on.Store(true)
	}
	err := layerSuite(e, s.base, m, buildTrace)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	m.set("summary.build_ms", ms(s.buildTime))
	return tr.write(cfg.outDir, cfg.workload, cfg.seed)
}
