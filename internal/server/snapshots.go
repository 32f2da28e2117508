package server

import (
	"fmt"
	"net/http"

	"repro/internal/schema"
	"repro/internal/store"
)

// schemed is implemented by estimators that know the schema they answer
// over; the solved summaries restored from snapshots do, which is what
// lets adopt register them without access to the original relation.
type schemed interface {
	Schema() *schema.Schema
}

// RestoreProblem describes one dataset key that could not be restored
// (corrupt snapshot, name collision, …) while the rest of the store was.
type RestoreProblem struct {
	Dataset string
	Err     error
}

// RestoreStore loads the latest snapshot of every dataset key in the
// store and registers each restored estimator in the registry under its key
// ("<dataset>/<strategy>", exactly the names BuildDataset would have
// used). Restoring is O(total summary bytes): no relation is scanned and
// no solver runs, which is the whole point of snapshotting.
//
// One damaged or unregisterable dataset must not take down a restartable
// service that could serve every other dataset, so per-dataset failures
// are returned as problems for the caller to log, not as the error; the
// error is reserved for the store listing itself failing.
func RestoreStore(reg *Registry, st *store.Store) (names []string, problems []RestoreProblem, err error) {
	manifests, err := st.List()
	if err != nil {
		return nil, nil, err
	}
	for _, man := range manifests {
		if _, err := adopt(reg, st, man.Dataset, true); err != nil {
			problems = append(problems, RestoreProblem{man.Dataset, err})
			continue
		}
		names = append(names, man.Dataset)
	}
	return names, problems, nil
}

// Adopt serves the newest version the local store holds of key: it loads the
// snapshot and publishes it as already persisted, registering the name or
// hot-swapping it in one atomic step. It is what a replica does with a
// version it imported (fleet.Syncer).
func Adopt(reg *Registry, st *store.Store, key string) (Entry, error) {
	return adopt(reg, st, key, false)
}

// adopt is Adopt, or with mustBeNew the cold-start restore that refuses to
// replace a served entry.
func adopt(reg *Registry, st *store.Store, key string, mustBeNew bool) (Entry, error) {
	est, info, err := st.Load(key, 0)
	if err != nil {
		return Entry{}, err
	}
	sc, ok := est.(schemed)
	if !ok {
		return Entry{}, fmt.Errorf("server: adopt %q (v%d): estimator %T carries no schema", key, info.Version, est)
	}
	ent, err := publish(reg, st, key, est, sc.Schema(), info.Version, mustBeNew)
	if err != nil {
		return ent, fmt.Errorf("server: adopt %q (v%d): %w", key, info.Version, err)
	}
	return ent, nil
}

// --- HTTP endpoints ---------------------------------------------------

// SnapshotsResponse is the body of GET /snapshots.
type SnapshotsResponse struct {
	Datasets []store.Manifest `json:"datasets"`
}

// requireStore writes the no-store error and reports whether a store is
// configured.
func (s *Server) requireStore(w http.ResponseWriter) bool {
	if s.opts.Store == nil {
		WriteError(w, http.StatusNotImplemented, "no snapshot store configured (start summaryd with -store)")
		return false
	}
	return true
}

// handleSnapshotList serves GET /snapshots: every dataset key of the
// configured store with the versions its directory holds (sizes, checksums
// and timestamps as read off the snapshot files).
func (s *Server) handleSnapshotList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.requireStore(w) {
		return
	}
	manifests, err := s.opts.Store.List()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SnapshotsResponse{Datasets: manifests})
}
