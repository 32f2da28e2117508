package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// SyncerOptions configure a replica's pull loop.
type SyncerOptions struct {
	// Interval is the poll period (default 2s); notifications wake the
	// loop sooner.
	Interval time.Duration
	// Timeout bounds each HTTP call to the origin (default 10s).
	Timeout time.Duration
	// Client overrides the HTTP client (default: a dedicated one).
	Client *http.Client
}

// Syncer keeps a replica's snapshot store and registry converged with an
// origin node, pull-by-version: it lists the versions the origin's store
// holds (GET /snapshots), fetches every one the local store lacks — or holds
// only as a file that no longer verifies — over GET /sync/snapshot,
// imports each AT the origin's version number, and serves the newest of
// every dataset key through the same publish a local refresh ends in
// (server.Adopt). Because snapshot restore is bit-identical, a
// converged replica answers exactly like the origin — including
// ?version=N time travel, since historical versions replicate too.
type Syncer struct {
	origin string
	st     *store.Store
	reg    *server.Registry
	opts   SyncerOptions

	mu      sync.Mutex
	cache   *server.Cache
	lastErr string

	wake     chan struct{}
	syncs    atomic.Uint64
	imported atomic.Uint64
	swaps    atomic.Uint64
}

// NewSyncer builds a syncer pulling from the origin node's base URL into
// the local store and registry. Call AttachCache before Run when the
// serving cache should be invalidated on swaps, then run the loop:
//
//	syncer := fleet.NewSyncer(originURL, st, reg, fleet.SyncerOptions{})
//	srv := server.New(reg, server.Options{SyncNotify: syncer.Notify, ...})
//	syncer.AttachCache(srv.Cache())
//	go syncer.Run(ctx)
func NewSyncer(origin string, st *store.Store, reg *server.Registry, opts SyncerOptions) *Syncer {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	return &Syncer{
		origin: origin,
		st:     st,
		reg:    reg,
		opts:   opts,
		wake:   make(chan struct{}, 1),
	}
}

// AttachCache hands the syncer the serving result cache so a hot swap
// invalidates the replaced version's answers, mirroring Live.refresh.
func (s *Syncer) AttachCache(c *server.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
}

// Notify wakes the sync loop without blocking: it is the hook behind
// POST /sync/notify (server.Options.SyncNotify). The dataset argument is
// accepted for the hook signature; a pass syncs everything — pulls are
// cheap no-ops for converged datasets.
func (s *Syncer) Notify(string) {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Run pulls once immediately, then on every poll tick or notification,
// until ctx is done. Errors are retained for Status, never fatal: an
// origin outage leaves the replica serving its current versions.
func (s *Syncer) Run(ctx context.Context) {
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	s.syncLogged(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		case <-s.wake:
		}
		s.syncLogged(ctx)
	}
}

func (s *Syncer) syncLogged(ctx context.Context) {
	_, err := s.SyncOnce(ctx)
	s.mu.Lock()
	if err != nil {
		s.lastErr = err.Error()
	} else {
		s.lastErr = ""
	}
	s.mu.Unlock()
}

// SyncReport summarizes one pull pass.
type SyncReport struct {
	// Imported counts snapshot versions fetched and stored.
	Imported int
	// Swapped lists the registry entries that moved to a new latest
	// version (registered fresh or hot-swapped), sorted.
	Swapped []string
}

// SyncOnce runs one pull pass and reports what moved. Per-dataset
// problems abort the pass with an error; everything imported before the
// failure stays imported (the pass is resumable by construction).
func (s *Syncer) SyncOnce(ctx context.Context) (SyncReport, error) {
	var rep SyncReport
	s.syncs.Add(1)
	manifests, err := s.fetchManifests(ctx)
	if err != nil {
		return rep, err
	}
	for _, man := range manifests {
		// newest is the highest version the local store holds once this
		// key's missing versions are in.
		local := make(map[int]bool)
		newest := 0
		if lman, err := s.st.Versions(man.Dataset); err == nil {
			for _, sn := range lman.Snapshots {
				local[sn.Version] = true
				newest = max(newest, sn.Version)
			}
		}
		for _, sn := range man.Snapshots {
			if local[sn.Version] {
				continue
			}
			if err := s.fetchSnapshot(ctx, man.Dataset, sn.Version); err != nil {
				return rep, err
			}
			rep.Imported++
			s.imported.Add(1)
			newest = max(newest, sn.Version)
		}
		// Serve it unless the registry already does. The decision is read
		// from state, not from what this pass fetched: a pass that imported
		// a version and then failed to serve it leaves the next pass
		// something to see.
		if ent, _ := s.reg.Get(man.Dataset); newest == 0 || ent.Version == newest {
			continue
		}
		if err := s.swapLatest(man.Dataset); err != nil {
			return rep, err
		}
		rep.Swapped = append(rep.Swapped, man.Dataset)
		s.swaps.Add(1)
	}
	sort.Strings(rep.Swapped)
	return rep, nil
}

// fetchManifests lists the origin's datasets via GET /snapshots.
func (s *Syncer) fetchManifests(ctx context.Context) ([]store.Manifest, error) {
	ctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.origin+"/snapshots", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.opts.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: sync: list %s: %w", s.origin, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("fleet: sync: list %s: %d: %s", s.origin, resp.StatusCode, b)
	}
	var out server.SnapshotsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("fleet: sync: list %s: %w", s.origin, err)
	}
	return out.Datasets, nil
}

// fetchSnapshot pulls one framed snapshot and imports it at the origin's
// version number. ImportFramed verifies the frame end to end and treats
// a concurrent identical import as success.
func (s *Syncer) fetchSnapshot(ctx context.Context, dataset string, version int) error {
	ctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	url := fmt.Sprintf("%s/sync/snapshot?dataset=%s&version=%d", s.origin, dataset, version)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: sync %q v%d: %w", dataset, version, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("fleet: sync %q v%d: %d: %s", dataset, version, resp.StatusCode, b)
	}
	framed, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("fleet: sync %q v%d: %w", dataset, version, err)
	}
	if _, err := s.st.ImportFramed(dataset, version, framed); err != nil {
		return err
	}
	return nil
}

// swapLatest serves the dataset key's newest local version: one atomic
// register-or-swap that also fences the serving cache and records the version
// now served — the replica-side caller of the node's one publish.
func (s *Syncer) swapLatest(dataset string) error {
	s.mu.Lock()
	cache := s.cache
	s.mu.Unlock()
	if _, err := server.Adopt(s.reg, cache, s.st, dataset); err != nil {
		return fmt.Errorf("fleet: sync swap: %w", err)
	}
	return nil
}

// SyncStatus reports the syncer's counters for /metrics and tests.
type SyncStatus struct {
	Origin    string `json:"origin"`
	Syncs     uint64 `json:"syncs"`
	Imported  uint64 `json:"imported"`
	Swaps     uint64 `json:"swaps"`
	LastError string `json:"last_error,omitempty"`
}

// Status returns the current sync counters.
func (s *Syncer) Status() SyncStatus {
	s.mu.Lock()
	lastErr := s.lastErr
	s.mu.Unlock()
	return SyncStatus{
		Origin:    s.origin,
		Syncs:     s.syncs.Load(),
		Imported:  s.imported.Load(),
		Swaps:     s.swaps.Load(),
		LastError: lastErr,
	}
}
