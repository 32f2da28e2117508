// Command loadgen measures a running summaryd instance end to end: it
// discovers the target estimator's schema over /estimators, generates the
// same seeded workload the in-process harness uses, replays it over HTTP
// on a bounded worker pool, and prints client-side throughput and p50/p95
// latency as JSON — the numbers the BENCH.md serving table records.
//
// With -ingest-every N, one request slot in N becomes a POST
// /ingest/{dataset} to the estimator's dataset (the name before its '/'),
// carrying -ingest-batch random schema-compatible rows in place of that
// slot's read: the mixed read/write workload of a live deployment,
// exercising the refresh + hot-swap path under concurrent queries.
//
// With -batch N, queries travel N to a round trip over POST /query/batch as
// the compact binary frames of internal/query; without it each query is one
// JSON POST /query or /groupby. Batching is the high-throughput client mode
// the BENCH.md batched-serving table measures.
//
// With -version-mix 0,1,2 requests cycle through a list of retained
// snapshot versions (0 = live; time travel needs a summaryd started with
// -store), each sent as ?version=N; a one-entry list such as -version-mix 1
// answers every query from that version. A mixed live/time-travel list
// stresses the server's historical-estimator cache. Ingest mixes exclude
// batching and versioned reads; experiment.LoadOptions.Validate is the
// single authority on which flag combinations are accepted.
//
// With -routers a,b,... requests rotate round-robin across several
// summaryrouter front-ends of the same fleet (schema discovery still uses
// -addr), measuring a sharded routing tier the way clients would drive it.
// -routers cannot combine with -ingest-every: a router only fences its own
// proxied writes, so spreading ingest across routers would leave every
// other router's read cache serving stale hits (docs/FLEET.md).
//
//	go run ./cmd/summaryd &
//	go run ./cmd/loadgen -addr http://localhost:8080 -estimator demo/maxent -requests 2000
//	go run ./cmd/loadgen -estimator demo/maxent -requests 2000 -ingest-every 10 -ingest-batch 50
//	go run ./cmd/loadgen -estimator demo/maxent -requests 4000 -batch 32
//	go run ./cmd/loadgen -estimator demo/maxent -requests 1000 -version-mix 1
//	go run ./cmd/loadgen -estimator demo/maxent -requests 1000 -version-mix 0,1,2
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
		ingestEvery = flag.Int("ingest-every", 0, "make every Nth request an ingest (0 disables the write mix)")
		ingestBatch = flag.Int("ingest-batch", 10, "rows per ingest request")
		batch       = flag.Int("batch", 0, "queries per binary POST /query/batch round trip (0 or 1 = JSON single-query endpoints)")
		versionMix  = flag.String("version-mix", "", "comma-separated snapshot versions cycled across requests, 0 meaning live (e.g. 0,1,2) — a mixed live/time-travel workload")
		routers     = flag.String("routers", "", "comma-separated base URLs fronting the same fleet; requests rotate round-robin across them (-addr still serves schema discovery; incompatible with -ingest-every)")
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
	if *ingestEvery < 0 || *ingestBatch <= 0 {
		fmt.Fprintf(os.Stderr, "loadgen: -ingest-every must be non-negative and -ingest-batch positive\n")
		os.Exit(2)
	}
	mixVersions, err := experiment.ParseVersionMix(*versionMix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -version-mix: %v\n", err)
		os.Exit(2)
	}

	// Assemble the full option set and reject contradictory flag combos in
	// one place (experiment.LoadOptions.Validate) BEFORE touching the
	// network — bad flags must fail instantly, not after discovery. The
	// ingest row pool is schema-dependent and filled in after discovery.
	opts := experiment.LoadOptions{
		Concurrency: *concurrency,
		Timeout:     *timeout,
		Batch:       *batch,
		VersionMix:  mixVersions,
		Routers:     splitRouters(*routers),
	}
	if *ingestEvery > 0 {
		dataset, _, _ := strings.Cut(*estimator, "/")
		opts.Ingest = &experiment.IngestMix{
			Dataset: dataset,
			Every:   *ingestEvery,
			Batch:   *ingestBatch,
		}
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
	if opts.Ingest != nil {
		// A pool of random schema-compatible rows; batches rotate through
		// it, so the ingested distribution is uniform over the domains.
		rng := rand.New(rand.NewSource(*seed + 11))
		pool := make([][]int, max(*ingestBatch*8, 256))
		for i := range pool {
			row := make([]int, sch.NumAttrs())
			for a := range row {
				row[a] = rng.Intn(sch.Attr(a).Size())
			}
			pool[i] = row
		}
		opts.Ingest.Rows = pool
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
	if res.Errors > 0 || res.IngestErrors > 0 {
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
