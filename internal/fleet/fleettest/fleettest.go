// Package fleettest is the in-process multi-node harness every fleet
// behavior is proven against: it boots N real summaryd instances (one
// ingest primary with a live dataset, N-1 replicas pulling snapshots off
// it) plus a router over httptest, and injects the failures a real fleet
// sees — dead nodes, hung nodes, hard kills mid-request. Everything runs
// in one process, so the race detector watches the entire sync/query
// interleaving.
package fleettest

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// Fault is an injected failure mode on one node.
type Fault int

// The injectable faults: None serves normally, Down answers 503 to
// everything (a saturated or crashing process), Hang parks every request
// until the client gives up (a wedged process behind a live TCP stack).
const (
	None Fault = iota
	Down
	Hang
)

// Options configure a test fleet. The zero value boots a 3-node fleet
// over a 3000-row synthetic dataset with a 50ms sync interval.
type Options struct {
	// Nodes is the total node count, primary included (default 3).
	Nodes int
	// Rows is the synthetic relation size (default 3000).
	Rows int
	// Seed draws the synthetic relation (default 1).
	Seed int64
	// RefreshRows is the primary's ingest auto-refresh threshold
	// (default 0: refreshes are triggered explicitly by tests).
	RefreshRows int
	// SyncInterval is the replicas' poll period (default 50ms).
	SyncInterval time.Duration
	// MaxSweeps bounds the solver so fleet tests stay fast (default 60).
	MaxSweeps int
	// Router overrides the router options.
	Router fleet.Options
}

// Node is one summaryd instance of the test fleet.
type Node struct {
	Name     string
	Registry *server.Registry
	Server   *server.Server
	Store    *store.Store
	Syncer   *fleet.Syncer // nil on the primary
	HTTP     *httptest.Server

	mu     sync.Mutex
	fault  Fault
	cancel context.CancelFunc
	killed bool
}

// URL returns the node's base URL.
func (n *Node) URL() string { return n.HTTP.URL }

// SetFault injects (or with None, clears) a failure mode. It takes
// effect on the next request.
func (n *Node) SetFault(f Fault) {
	n.mu.Lock()
	n.fault = f
	n.mu.Unlock()
}

func (n *Node) currentFault() Fault {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fault
}

// Kill hard-stops the node: in-flight client connections are severed and
// the listener closed, so subsequent requests fail at the transport —
// the closest an in-process harness gets to SIGKILL. Idempotent.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return
	}
	n.killed = true
	cancel := n.cancel
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	n.HTTP.CloseClientConnections()
	n.HTTP.Close()
}

// faultMiddleware wraps the node handler with the injection point.
func (n *Node) faultMiddleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.currentFault() {
		case Down:
			http.Error(w, `{"error":"fleettest: injected fault"}`, http.StatusServiceUnavailable)
			return
		case Hang:
			// Park until the client abandons the request; the router's
			// per-attempt timeout is what unwedges it. The body must be
			// drained first: net/http only arms client-disconnect
			// detection (the background read that cancels r.Context())
			// once the request body is consumed, so parking on an unread
			// POST body would never wake up.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// Fleet is a booted test fleet: Nodes[0] is the ingest primary, the rest
// are pull replicas, and Router fronts them all.
type Fleet struct {
	Dataset    string
	Nodes      []*Node
	Live       *server.Live
	Router     *fleet.Router
	RouterHTTP *httptest.Server

	opts Options
}

// Primary returns the ingest node.
func (f *Fleet) Primary() *Node { return f.Nodes[0] }

// RouterURL returns the router's base URL.
func (f *Fleet) RouterURL() string { return f.RouterHTTP.URL }

// New boots a fleet and registers its teardown on t. The primary builds
// (and snapshots) the "demo" dataset over a synthetic relation; replicas
// start empty and are synced before New returns, so tests begin from a
// converged fleet.
func New(t testing.TB, opts Options) *Fleet {
	t.Helper()
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Rows <= 0 {
		opts.Rows = 3000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 50 * time.Millisecond
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = 60
	}
	f := &Fleet{Dataset: "demo", opts: opts}

	// Primary: live dataset over a store, snapshots published at build.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(opts.Rows, rand.New(rand.NewSource(opts.Seed))))
	live, _, err := server.BuildLiveDataset(reg, f.Dataset, mut, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: opts.MaxSweeps}},
			Store:   st,
		},
		RefreshRows: opts.RefreshRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	primary := &Node{Name: "node0", Registry: reg, Store: st}
	primary.Server = server.New(reg, server.Options{Store: st, NodeName: primary.Name})
	primary.Server.AttachLive(live)
	primary.HTTP = httptest.NewServer(primary.faultMiddleware(primary.Server.Handler()))
	f.Live = live
	f.Nodes = append(f.Nodes, primary)
	t.Cleanup(primary.Kill)

	// Replicas: empty store + registry, pull loop off the primary.
	for i := 1; i < opts.Nodes; i++ {
		n := &Node{Name: fmt.Sprintf("node%d", i)}
		n.Store, err = store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		n.Registry = server.NewRegistry()
		n.Syncer = fleet.NewSyncer(primary.HTTP.URL, n.Store, n.Registry, fleet.SyncerOptions{
			Interval: opts.SyncInterval,
		})
		n.Server = server.New(n.Registry, server.Options{
			Store:      n.Store,
			NodeName:   n.Name,
			SyncNotify: n.Syncer.Notify,
		})
		ctx, cancel := context.WithCancel(context.Background())
		n.cancel = cancel
		go n.Syncer.Run(ctx)
		n.HTTP = httptest.NewServer(n.faultMiddleware(n.Server.Handler()))
		f.Nodes = append(f.Nodes, n)
		t.Cleanup(n.Kill)
	}

	// Router over the full replica set.
	cfgs := make([]fleet.NodeConfig, len(f.Nodes))
	for i, n := range f.Nodes {
		cfgs[i] = fleet.NodeConfig{Name: n.Name, URL: n.HTTP.URL}
	}
	f.Router, err = fleet.NewRouter(cfgs, opts.Router)
	if err != nil {
		t.Fatal(err)
	}
	f.RouterHTTP = httptest.NewServer(f.Router.Handler())
	t.Cleanup(f.RouterHTTP.Close)

	if err := f.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("fleettest: initial sync never converged: %v", err)
	}
	return f
}

// WaitConverged polls until every live replica's store holds every
// snapshot version the primary's store holds AND its registry serves the
// latest version of every dataset key — the fleet-wide convergence
// predicate (version identity makes it checkable by set comparison).
func (f *Fleet) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lag, err := f.convergenceLag()
		if err == nil && lag == "" {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("fleet not converged after %v: %s", timeout, lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// convergenceLag describes the first divergence found ("" = converged).
func (f *Fleet) convergenceLag() (string, error) {
	manifests, err := f.Primary().Store.List()
	if err != nil {
		return "", err
	}
	for _, n := range f.Nodes[1:] {
		n.mu.Lock()
		killed := n.killed
		n.mu.Unlock()
		if killed {
			continue
		}
		for _, man := range manifests {
			lman, err := n.Store.Versions(man.Dataset)
			if err != nil {
				return fmt.Sprintf("%s: %q not yet synced", n.Name, man.Dataset), nil
			}
			local := make(map[int]bool, len(lman.Snapshots))
			latest := 0
			for _, sn := range lman.Snapshots {
				local[sn.Version] = true
				if sn.Version > latest {
					latest = sn.Version
				}
			}
			for _, sn := range man.Snapshots {
				if !local[sn.Version] {
					return fmt.Sprintf("%s: %q missing v%d", n.Name, man.Dataset, sn.Version), nil
				}
			}
			ent, ok := n.Registry.Get(man.Dataset)
			if !ok {
				return fmt.Sprintf("%s: %q not registered", n.Name, man.Dataset), nil
			}
			// Holding every version is necessary but not sufficient — the
			// swap into the registry trails the import by a moment. The
			// full-cardinality answer is an O(1) fingerprint of the served
			// model, so compare it bitwise against the primary's entry.
			if pent, ok := f.Primary().Registry.Get(man.Dataset); ok {
				want, werr := pent.Estimator.EstimateCount(nil)
				got, gerr := ent.Estimator.EstimateCount(nil)
				if werr != nil || gerr != nil || math.Float64bits(want) != math.Float64bits(got) {
					return fmt.Sprintf("%s: %q serves N=%v (v%d synced), primary serves N=%v",
						n.Name, man.Dataset, got, latest, want), nil
				}
			}
		}
	}
	return "", nil
}

// Rows returns n encoded rows compatible with the synthetic schema
// (domains 4, 6, 3, 8), all carrying the same value pattern v.
func Rows(n, v int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{v % 4, v % 6, v % 3, v % 8}
	}
	return rows
}
