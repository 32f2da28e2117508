// Command summaryrouter is the fleet coordinator: it fronts a replica
// set of summaryd nodes and serves the same HTTP surface, routing each
// request with health-aware, load-aware node selection. Reads go to the
// least-loaded node whose circuit breaker passes traffic and are retried
// with backoff across peers on replica failure (transport errors and
// 502/503/504); writes — POST /ingest/{dataset} — go to the primary (the
// first -nodes entry) exactly once, and an ingest that refreshed (so
// published new snapshot versions) fans a POST /sync/notify out to the
// replicas so the fleet converges within one round trip instead of one
// poll interval.
//
// Every read — JSON POST /query, JSON POST /groupby, binary POST
// /query/batch; a single read is a batch of one — is served item by item
// through one path. Warm items never leave the router: answers are cached (-cache
// entries, -1 disables), keyed by canonical query identity and proven
// fresh by the generation each node stamps on its answers — a routed write
// fences its dataset at the generation it reports, so no cached answer can
// outlive it — and concurrent identical misses collapse into a single node
// round trip. Responses answered entirely on the router carry
// "X-Router-Cache: hit".
//
// The misses of one read reach the fleet as one binary sub-frame to one
// node, whose answers are bitwise identical to asking that node directly.
//
// Endpoints: the proxied summaryd surface (POST /query,
// POST /query/batch, POST /groupby, GET /estimators, GET /snapshots,
// POST /ingest/{dataset}) plus the router's
// own GET /healthz and GET /metrics reporting per-node breaker state,
// in-flight load, and retry counters.
// See docs/FLEET.md for the full topology walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		nodes        = flag.String("nodes", "", "comma-separated replica set, primary first: URL or name=URL per node (e.g. http://a:8080,replica1=http://b:8080)")
		timeout      = flag.Duration("timeout", 10*time.Second, "per-attempt proxy timeout")
		retries      = flag.Int("retries", 0, "extra attempts per retryable request (0 selects one per remaining node)")
		retryBackoff = flag.Duration("retry-backoff", 10*time.Millisecond, "pause before the first retry, doubled per subsequent retry")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive failures that open a node's circuit breaker")
		brkCooldown  = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker sheds traffic before probing the node again")
		maxBody      = flag.Int64("max-body-bytes", 1<<20, "proxied request body cap in bytes (bodies are buffered for retries)")
		cacheSize    = flag.Int("cache", 4096, "router read cache size in entries; warm reads are answered without a node round trip, kept fresh by generation fencing (-1 disables)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	cfgs, err := parseNodes(*nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryrouter: %v\n", err)
		os.Exit(2)
	}

	rt, err := fleet.NewRouter(cfgs, fleet.Options{
		Timeout:          *timeout,
		Retries:          *retries,
		RetryBackoff:     *retryBackoff,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		MaxBodyBytes:     *maxBody,
		CacheSize:        *cacheSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryrouter: %v\n", err)
		os.Exit(2)
	}
	for i, nc := range cfgs {
		role := "replica"
		if i == 0 {
			role = "primary"
		}
		log.Printf("node %s (%s): %s", nc.Name, role, nc.URL)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("routing %d nodes on %s", len(cfgs), *addr)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("bye")
}

// parseNodes decodes the -nodes list: "URL" or "name=URL" per entry,
// comma-separated, primary first. Unnamed nodes get node<i> names.
func parseNodes(spec string) ([]fleet.NodeConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("-nodes is required: a comma-separated replica set, primary first")
	}
	var cfgs []fleet.NodeConfig
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-nodes entry %d is empty", i)
		}
		nc := fleet.NodeConfig{Name: fmt.Sprintf("node%d", i), URL: entry}
		// name=URL form: split on the first '=' unless the value is a bare
		// URL (no '=' before "://").
		if eq := strings.Index(entry, "="); eq >= 0 && (strings.Index(entry, "://") < 0 || eq < strings.Index(entry, "://")) {
			name := strings.TrimSpace(entry[:eq])
			url := strings.TrimSpace(entry[eq+1:])
			if name == "" || url == "" {
				return nil, fmt.Errorf("-nodes entry %d: want name=URL, got %q", i, entry)
			}
			nc = fleet.NodeConfig{Name: name, URL: url}
		}
		if !strings.Contains(nc.URL, "://") {
			return nil, fmt.Errorf("-nodes entry %d: %q is not a URL (want e.g. http://host:8080)", i, nc.URL)
		}
		cfgs = append(cfgs, nc)
	}
	return cfgs, nil
}
