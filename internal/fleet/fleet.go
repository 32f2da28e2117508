// Package fleet shards the serving tier across a replica set of summaryd
// nodes. Summaries are ~1KB immutable versioned blobs, so the fleet
// replicates the cheap derived artifacts everywhere while raw relations
// stay on the ingest primary: a Syncer keeps each replica's snapshot
// store and registry converged with the primary pull-by-version (a
// snapshot version names the same bits on every node, so convergence is
// checkable by version sets and answers are bit-identical wherever they
// are served from), and a Router proxies the query surface with
// health-aware, load-aware node selection, retry-with-backoff, per-node
// circuit breaking, and a generation-fenced read cache.
// See docs/FLEET.md for the topology, the sync protocol, and the failure
// semantics.
package fleet
