// Command loadgen measures a running summaryd instance end to end: it
// discovers the target estimator's schema over /estimators, generates the
// same seeded workload the in-process harness uses, replays it over HTTP
// on a bounded worker pool, and prints client-side throughput and p50/p95
// latency as JSON — the numbers the BENCH.md serving table records. It
// sends reads only.
//
// With -batch N, queries travel N to a round trip over POST /query/batch as
// the compact binary frames of internal/query; without it each query is one
// JSON POST /query or /groupby. Batching is the high-throughput client mode
// the BENCH.md batched-serving table measures.
//
// With -routers a,b,... requests rotate round-robin across several
// summaryrouter front-ends of the same fleet (schema discovery still uses
// -addr), measuring a sharded routing tier the way clients would drive it.
// experiment.LoadOptions.Validate is the single authority on which flag
// values are accepted.
//
//	go run ./cmd/summaryd &
//	go run ./cmd/loadgen -addr http://localhost:8080 -estimator demo/maxent -requests 2000
//	go run ./cmd/loadgen -estimator demo/maxent -requests 4000 -batch 32
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/schema"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "base URL of the summaryd instance")
		estimator   = flag.String("estimator", "demo/maxent", "registered estimator to query")
		queries     = flag.Int("queries", 200, "distinct workload queries to generate")
		requests    = flag.Int("requests", 0, "total requests to send (default queries; larger values replay the workload and exercise the cache)")
		seed        = flag.Int64("seed", 1, "workload seed")
		concurrency = flag.Int("concurrency", 8, "in-flight requests")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		batch       = flag.Int("batch", 0, "queries per binary POST /query/batch round trip (0 or 1 = JSON single-query endpoints)")
		routers     = flag.String("routers", "", "comma-separated base URLs fronting the same fleet; requests rotate round-robin across them (-addr still serves schema discovery)")
	)
	flag.Parse()
	if *queries <= 0 {
		fmt.Fprintf(os.Stderr, "loadgen: -queries must be positive, got %d\n", *queries)
		os.Exit(2)
	}
	if *requests < 0 {
		fmt.Fprintf(os.Stderr, "loadgen: -requests must be non-negative, got %d\n", *requests)
		os.Exit(2)
	}

	// Assemble the full option set and reject bad values in one place
	// (experiment.LoadOptions.Validate) BEFORE touching the network — bad
	// flags must fail instantly, not after discovery.
	opts := experiment.LoadOptions{
		Concurrency: *concurrency,
		Timeout:     *timeout,
		Batch:       *batch,
		Routers:     splitRouters(*routers),
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	sch, err := discoverSchema(*addr, *estimator)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	workload := experiment.GenerateWorkload(sch, *queries, rand.New(rand.NewSource(*seed)))
	opts.Repeat = 1
	if *requests > 0 && *requests < len(workload) {
		// Fewer requests than distinct queries: send a prefix once.
		workload = workload[:*requests]
	} else if *requests > *queries {
		opts.Repeat = (*requests + *queries - 1) / *queries
	}
	res, err := experiment.DriveHTTP(*addr, *estimator, workload, opts)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// splitRouters decodes the -routers list; validity (non-empty entries,
// URL shape) is experiment.LoadOptions.Validate's job.
func splitRouters(spec string) []string {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	var out []string
	for _, u := range strings.Split(spec, ",") {
		out = append(out, strings.TrimSpace(u))
	}
	return out
}

// discoverSchema asks the server for the estimator's domain sizes and
// reconstructs a workload-compatible schema (GenerateWorkload only needs
// arity and per-attribute sizes).
func discoverSchema(baseURL, estimator string) (*schema.Schema, error) {
	resp, err := http.Get(baseURL + "/estimators")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /estimators: status %d", resp.StatusCode)
	}
	var er server.EstimatorsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return nil, fmt.Errorf("decode /estimators: %w", err)
	}
	for _, e := range er.Estimators {
		if e.Name != estimator {
			continue
		}
		attrs := make([]schema.Attribute, len(e.DomainSizes))
		for i, size := range e.DomainSizes {
			name := fmt.Sprintf("a%d", i)
			if i < len(e.AttrNames) {
				name = e.AttrNames[i]
			}
			labels := make([]string, size)
			for v := range labels {
				labels[v] = fmt.Sprintf("v%d", v)
			}
			a, err := schema.NewCategorical(name, labels)
			if err != nil {
				return nil, fmt.Errorf("reconstruct schema: %w", err)
			}
			attrs[i] = a
		}
		return schema.New(attrs...)
	}
	names := make([]string, len(er.Estimators))
	for i, e := range er.Estimators {
		names[i] = e.Name
	}
	return nil, fmt.Errorf("estimator %q not registered (server has %v)", estimator, names)
}
