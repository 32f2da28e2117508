// Command summaryd is the long-lived serving shape of the reproduction: it
// builds a MaxEnt summary over a dataset, registers it in the estimator
// registry, and serves counting and group-by queries over HTTP/JSON with an
// LRU result cache, admission control, and latency/QPS metrics. Queries are
// answered from the summary alone; no node keeps the rows.
//
// With -store, summaryd is restartable: at startup it restores every
// snapshot in the store (cold start in O(summary bytes), no data scan, no
// solver), and only builds the -dataset model when the store holds none for
// it yet — saving the result as a new snapshot version, so the next start
// restores instead. A version is born at a build or a refresh only; GET
// /snapshots lists what is stored.
//
// summaryd also serves live ingestion: POST /ingest/{dataset} accepts rows
// (JSON-encoded domain values or a raw CSV body) as pending, and a refresh
// policy (-refresh-rows threshold and/or the -refresh-interval ticker) folds
// them into a new model version — delta statistics plus a re-solve — that
// is saved to the snapshot store when -store is set and only then
// hot-swapped in with zero downtime, after which the rows are dropped. So a
// restarted primary resumes ingestion from the model it last served; rows
// still pending at exit are lost. With -store a model's generation is its
// store version, on this node and every replica synced from it; /metrics
// reports it per dataset beside the staleness.
//
// The snapshot store doubles as a time-travel surface: POST
// /query?version=N (and /groupby, /query/batch) answer from any retained
// snapshot version through an LRU of lazily-restored historical
// estimators (budget set by -history-cache-bytes). See
// docs/VERSIONING.md.
//
// Endpoints: POST /query, POST /query/batch, POST /groupby,
// POST /ingest/{dataset}, GET /estimators, GET /healthz, GET /metrics,
// GET /snapshots. See docs/API.md for the full wire reference and the
// README's "Serving summaries" section for a curl walkthrough.
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/summary"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "demo", "dataset name estimators are registered under")
		rows        = flag.Int("rows", 20000, "synthetic relation cardinality")
		seed        = flag.Int64("seed", 1, "seed for the synthetic data")
		pairBudget  = flag.Int("pairs", 2, "attribute pairs receiving 2D statistics (B_a)")
		perPair     = flag.Int("per-pair", 8, "2D statistics per pair (B_s)")
		heuristic   = flag.String("heuristic", "COMPOSITE", "bucket heuristic: LARGE, ZERO, or COMPOSITE")
		sweeps      = flag.Int("sweeps", 200, "solver sweep budget")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request handling timeout")
		maxConc     = flag.Int("max-concurrent", 64, "maximum concurrent estimator evaluations")
		cacheSize   = flag.Int("cache", 4096, "result-cache capacity in entries (-1 disables)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		storeDir    = flag.String("store", "", "snapshot store directory: restore summaries at startup, save on build (created if missing)")
		refreshRows = flag.Int("refresh-rows", 1000, "hot-swap refreshed estimators once this many ingested rows are pending (0 disables threshold refreshes)")
		refreshIvl  = flag.Duration("refresh-interval", 0, "additionally refresh pending ingested rows on this period (0 disables)")
		histBytes   = flag.Int64("history-cache-bytes", 0, "heap budget of the historical-estimator cache behind ?version=N time-travel queries (0 selects 64 MiB, ~75 versions of a 10k-term model; needs -store)")
		nodeName    = flag.String("node-name", "", "fleet identity reported on /healthz and /metrics (required with -peer)")
		peer        = flag.String("peer", "", "replica mode: pull snapshots from this summaryd base URL instead of building (needs -store; disables the build pipeline and ingestion)")
		syncIvl     = flag.Duration("sync-interval", 2*time.Second, "replica snapshot poll period (with -peer; /sync/notify wakes it early)")
	)
	flag.Parse()

	if err := validate(*rows, *sweeps); err != nil {
		fmt.Fprintf(os.Stderr, "summaryd: %v\n", err)
		os.Exit(2)
	}
	if *refreshRows < 0 {
		fmt.Fprintf(os.Stderr, "summaryd: -refresh-rows must be non-negative, got %d\n", *refreshRows)
		os.Exit(2)
	}
	if *refreshIvl < 0 {
		fmt.Fprintf(os.Stderr, "summaryd: -refresh-interval must be non-negative, got %v\n", *refreshIvl)
		os.Exit(2)
	}
	if *histBytes < 0 {
		fmt.Fprintf(os.Stderr, "summaryd: -history-cache-bytes must be non-negative, got %d\n", *histBytes)
		os.Exit(2)
	}
	if *peer != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "summaryd: -peer needs -store (replicas import snapshots into a local store)")
		os.Exit(2)
	}
	if *peer != "" && *nodeName == "" {
		fmt.Fprintln(os.Stderr, "summaryd: -peer needs -node-name (replicas must be identifiable in fleet metrics)")
		os.Exit(2)
	}
	if *syncIvl <= 0 {
		fmt.Fprintf(os.Stderr, "summaryd: -sync-interval must be positive, got %v\n", *syncIvl)
		os.Exit(2)
	}
	h, err := stats.ParseHeuristic(*heuristic)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryd: %v\n", err)
		os.Exit(2)
	}
	// Validate the store path up front (create-if-missing, writability
	// probe), before any build work: a misconfigured -store must fail in
	// seconds, not after a minute of solving.
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "summaryd: %v\n", err)
			os.Exit(2)
		}
	}

	reg := server.NewRegistry()
	if st != nil {
		restoreStart := time.Now()
		restored, problems, err := server.RestoreStore(reg, st)
		if err != nil {
			log.Fatal(err)
		}
		// One damaged dataset must not keep a restartable daemon down;
		// restore what loads, warn about what does not.
		for _, p := range problems {
			log.Printf("warning: snapshot restore skipped %q: %v", p.Dataset, p.Err)
		}
		if len(restored) > 0 {
			log.Printf("restored %d estimator(s) from %s in %v: %v",
				len(restored), st.Dir(), time.Since(restoreStart).Round(time.Millisecond), restored)
		}
	}

	liveOpts := server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{
				PairBudget:    *pairBudget,
				PerPairBudget: *perPair,
				Heuristic:     h,
				Solver:        solver.Options{MaxSweeps: *sweeps},
			},
			Store: st,
		},
		RefreshRows: *refreshRows,
	}

	// A replica never builds or ingests: it pulls every snapshot version off
	// its peer and hot-swaps the latest in, so the solver runs on exactly one
	// node of a fleet. A primary builds -dataset only when the store did not
	// restore its model, then takes writes from the served model either way.
	var live *server.Live
	var syncer *fleet.Syncer
	if *peer != "" {
		syncer = fleet.NewSyncer(*peer, st, reg, fleet.SyncerOptions{Interval: *syncIvl})
		log.Printf("replica mode: pulling snapshots from %s every %v (POST /sync/notify wakes the pull early)", *peer, *syncIvl)
	} else {
		if _, ok := reg.Get(*dataset + "/maxent"); ok {
			log.Printf("dataset %q: serving from snapshot, skipping build", *dataset)
		} else {
			rel := experiment.SyntheticRelation(*rows, rand.New(rand.NewSource(*seed)))
			log.Printf("dataset %q: %s, %d rows", *dataset, rel.Schema(), rel.NumRows())
			buildStart := time.Now()
			ent, err := server.BuildDataset(reg, *dataset, rel, liveOpts.Dataset)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("built %s in %v", ent.Name, time.Since(buildStart).Round(time.Millisecond))
		}
		if live, err = server.ResumeLive(reg, *dataset, liveOpts); err != nil {
			log.Fatal(err)
		}
	}

	srvOpts := server.Options{
		Timeout:       *timeout,
		MaxConcurrent: *maxConc,
		CacheSize:     *cacheSize,
		Store:         st,
		HistoryBytes:  *histBytes,
		NodeName:      *nodeName,
	}
	if syncer != nil {
		srvOpts.SyncNotify = syncer.Notify
	}
	srv := server.New(reg, srvOpts)
	if syncer != nil {
		syncer.AttachCache(srv.Cache())
	}
	if live != nil {
		srv.AttachLive(live)
		log.Printf("dataset %q: live ingestion on POST /ingest/%s (refresh threshold %d rows, interval %v)",
			*dataset, *dataset, *refreshRows, *refreshIvl)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The replica pull loop lives for the whole process and dies with it.
	if syncer != nil {
		go syncer.Run(ctx)
	}

	// The refresh-interval ticker folds pending ingested rows in even when
	// traffic never crosses the row threshold (Refresh no-ops when nothing
	// is pending).
	if live != nil && *refreshIvl > 0 {
		go func() {
			tick := time.NewTicker(*refreshIvl)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					out, err := live.Refresh()
					if err != nil {
						log.Printf("interval refresh: %v", err)
						continue
					}
					if out.DeltaRows > 0 {
						log.Printf("interval refresh: folded %d rows into version %d (%d sweeps, rebuilt=%t)",
							out.DeltaRows, out.Generation, out.Sweeps, out.Rebuilt)
					}
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", *addr)
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

// validate rejects nonsensical flag combinations up front, before any work
// is attempted.
func validate(rows, sweeps int) error {
	if rows <= 0 {
		return fmt.Errorf("-rows must be positive, got %d", rows)
	}
	if sweeps <= 0 {
		return fmt.Errorf("-sweeps must be positive, got %d", sweeps)
	}
	return nil
}
