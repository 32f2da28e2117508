package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/store"
)

// This file is the peer-sync surface of a summaryd node. Replication in
// the fleet is pull-by-version (docs/FLEET.md): snapshots travel as their
// verified on-disk frames over GET /sync/snapshot, and POST /sync/notify
// lets the ingest node wake a replica's sync loop so a new version
// propagates within one round trip instead of one poll interval.

// SnapshotContentType is the media type of a framed snapshot on the wire.
const SnapshotContentType = "application/x-entropydb-snapshot"

// Snapshot transfer headers on GET /sync/snapshot responses.
const (
	SnapshotVersionHeader   = "X-Snapshot-Version"
	SnapshotChecksumHeader  = "X-Snapshot-Checksum"
	SnapshotEstimatorHeader = "X-Snapshot-Estimator"
)

// handleSyncSnapshot serves GET /sync/snapshot?dataset=K[&version=N]: the
// complete framed bytes of one snapshot, exactly as stored (version
// omitted or 0 = latest). The frame carries its own checksum, so the
// fetching peer verifies integrity end to end without trusting the
// transport.
func (s *Server) handleSyncSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.requireStore(w) {
		return
	}
	dataset := r.URL.Query().Get("dataset")
	if dataset == "" {
		WriteError(w, http.StatusBadRequest, `missing "dataset" parameter (a full store key like "demo/maxent")`)
		return
	}
	version := 0
	if v, herr := urlVersion(r); herr != nil {
		WriteError(w, herr.status, herr.msg)
		return
	} else if v > 0 {
		version = v
	}
	framed, info, err := s.opts.Store.ReadFramed(dataset, version)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			WriteError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, store.ErrCorrupt):
			WriteError(w, http.StatusInternalServerError, err.Error())
		default:
			WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", SnapshotContentType)
	w.Header().Set(SnapshotVersionHeader, strconv.Itoa(info.Version))
	w.Header().Set(SnapshotChecksumHeader, fmt.Sprintf("%08x", info.Checksum))
	w.Header().Set(SnapshotEstimatorHeader, info.Estimator)
	w.Header().Set("Content-Length", strconv.Itoa(len(framed)))
	_, _ = w.Write(framed)
}

// SyncNotifyRequest is the body of POST /sync/notify. An empty (or
// absent) dataset asks the node to sync every dataset it replicates.
type SyncNotifyRequest struct {
	Dataset string `json:"dataset,omitempty"`
}

// SyncNotifyResponse is the body of a successful POST /sync/notify.
// Accepted is false when this node has no sync loop attached (it is not a
// replica), which is not an error — notifying a standalone node is a
// harmless no-op.
type SyncNotifyResponse struct {
	Status   string `json:"status"`
	Accepted bool   `json:"accepted"`
}

// handleSyncNotify serves POST /sync/notify: it hands the named dataset
// to the node's sync hook (Options.SyncNotify), waking the replica's pull
// loop. The hook must not block — it is invoked inline.
func (s *Server) handleSyncNotify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req SyncNotifyRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil && err != io.EOF {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return
	}
	if s.opts.SyncNotify == nil {
		writeJSON(w, http.StatusOK, SyncNotifyResponse{Status: "ok", Accepted: false})
		return
	}
	s.opts.SyncNotify(req.Dataset)
	writeJSON(w, http.StatusOK, SyncNotifyResponse{Status: "ok", Accepted: true})
}
