package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/summary"
)

// BranchResponse is the body of a successful POST /branch/{parent}.
type BranchResponse struct {
	// Branch is the new dataset name; Parent and FromVersion name the fork
	// point (the parent's "<parent>/maxent" snapshot the branch diverges
	// from).
	Branch      string `json:"branch"`
	Parent      string `json:"parent"`
	FromVersion int    `json:"from_version"`
	// Rows is how many of the parent's rows the branch starts with.
	Rows int `json:"rows"`
	// Registered lists the estimator names now serving the branch.
	Registered []string `json:"registered"`
	// SnapshotVersion is the branch's own first snapshot version (its v1;
	// the fork lineage is recorded beside it).
	SnapshotVersion int   `json:"snapshot_version"`
	ElapsedNS       int64 `json:"elapsed_ns"`
}

// handleBranch serves POST /branch/{parent}?from=N&name=X: it forks the
// live parent dataset at snapshot version N (0/absent = latest) into a
// new independently-ingestable dataset X. The branch reuses the parent's
// storage up to the fork point — the restored fork summary is served
// as-is (bit-identical answers, no re-solve) and the branch relation is a
// zero-copy capacity-capped view of the parent's first N-version rows, so
// divergent appends on either side open new parts instead of overwriting
// shared columns. The fork summary is saved as the branch's snapshot v1
// with its lineage recorded beside it (store.SetParent), which also
// implicitly pins the parent's fork-point version against pruning.
func (s *Server) handleBranch(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	if !s.requireStore(w) {
		return
	}
	parent := strings.TrimPrefix(r.URL.Path, "/branch/")
	if parent == "" || strings.Contains(parent, "/") {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "use POST /branch/{parent}?from=N&name=X with a single-segment parent dataset"})
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" || strings.Contains(name, "/") {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: `the "name" parameter (single-segment branch dataset name) is required`})
		return
	}
	if name == parent {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "branch name must differ from the parent"})
		return
	}
	from := 0
	if raw := q.Get("from"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("from must be a non-negative integer, got %q", raw)})
			return
		}
		from = v
	}
	parentLive, ok := s.live(parent)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("dataset %q has no live relation attached (branching forks one)", parent)})
		return
	}

	parentKey := parent + "/maxent"
	from, herr := s.resolveVersion(parentKey, from)
	if herr != nil {
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
		return
	}
	ent, herr := s.lookupEntry(parentKey, from)
	if herr != nil {
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
		return
	}
	sum, ok := ent.Estimator.(*summary.Summary)
	if !ok {
		writeJSON(w, http.StatusUnprocessableEntity,
			errorResponse{Error: fmt.Sprintf("snapshot %q v%d is a %T, want a refreshable summary", parentKey, from, ent.Estimator)})
		return
	}

	// The fork point covers the parent relation's first N rows (appends are
	// the only mutation, so row count maps a snapshot onto a prefix). A
	// snapshot describing more rows than the live relation means the
	// relation was regenerated since — refuse rather than fork wrong data.
	rows := int(sum.N())
	frozen, _ := parentLive.Mutable().Freeze()
	if rows > frozen.NumRows() {
		writeJSON(w, http.StatusConflict,
			errorResponse{Error: fmt.Sprintf("snapshot %q v%d covers %d rows but the live relation holds %d — cannot fork", parentKey, from, rows, frozen.NumRows())})
		return
	}
	view, err := frozen.Slice(0, rows)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}

	// A branch is a refresh by nothing: derived over exactly the rows the fork
	// summary covers, the summary stands as it is (bit-identical answers, no
	// re-solve), beside an exact engine over the shared rows unless the
	// parent's options skip it. The branch inherits those options, serves —
	// and from here on refreshes — what they derive, and saves the summary as
	// its own v1. Every name must be new, and once one is registered every
	// later failure unwinds it.
	list, _, err := Derive(name, view, parentLive.opts.Dataset, sum)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	var registered []string
	fail := func(status int, err error) {
		for _, n := range registered {
			s.reg.Unregister(n)
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
	}
	version := 0
	for _, st := range list {
		pub, err := publish(s.reg, s.cache, s.opts.Store, st, ent.Schema, 0, true)
		if pub.Generation == 0 {
			fail(http.StatusConflict, err) // the name is taken
			return
		}
		registered = append(registered, st.Name)
		if err != nil {
			fail(http.StatusInternalServerError, err)
			return
		}
		version = max(version, pub.Served)
	}
	// The lineage makes the branch's v1 name the parent's fork point.
	if err := s.opts.Store.SetParent(name+"/maxent", store.Lineage{Dataset: parentKey, Version: from}); err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	live, err := NewLive(s.reg, name, relation.NewMutable(view), s.opts.Store, parentLive.opts)
	if err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	s.AttachLive(live)

	writeJSON(w, http.StatusOK, BranchResponse{
		Branch:          name,
		Parent:          parent,
		FromVersion:     from,
		Rows:            rows,
		Registered:      registered,
		SnapshotVersion: version,
		ElapsedNS:       s.opts.Now().Sub(start).Nanoseconds(),
	})
}

// DiffResponse is the body of a successful GET /diff/{dataset}.
type DiffResponse struct {
	Dataset  string `json:"dataset"`
	BDataset string `json:"b_dataset,omitempty"`
	Strategy string `json:"strategy"`
	A        int    `json:"a"`
	B        int    `json:"b"`
	summary.DiffReport
}

// handleDiff serves GET /diff/{dataset}?a=N&b=M: per-attribute
// distribution drift between two retained snapshots, scored with the
// streaming-drift experiment's error metrics (total-variation distance
// and symmetric relative error over the normalized 1D marginals). a and b
// are snapshot versions (0/absent = latest); b_dataset compares across
// datasets — e.g. a branch against its parent — and strategy selects the
// stored estimator (default maxent). Both sides are served through the
// historical cache, so repeated diffs of warm versions touch no disk.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	if !s.requireStore(w) {
		return
	}
	dataset := strings.TrimPrefix(r.URL.Path, "/diff/")
	if dataset == "" || strings.Contains(dataset, "/") {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "use GET /diff/{dataset}?a=N&b=M with a single-segment dataset name"})
		return
	}
	q := r.URL.Query()
	strategy := q.Get("strategy")
	if strategy == "" {
		strategy = "maxent"
	}
	bDataset := q.Get("b_dataset")
	if bDataset == "" {
		bDataset = dataset
	}
	parse := func(param string) (int, *httpError) {
		raw := q.Get(param)
		if raw == "" {
			return 0, nil
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return 0, badRequest("%s must be a non-negative integer, got %q", param, raw)
		}
		return v, nil
	}
	a, herr := parse("a")
	if herr == nil {
		var b int
		if b, herr = parse("b"); herr == nil {
			s.serveDiff(w, dataset, bDataset, strategy, a, b)
			return
		}
	}
	writeJSON(w, herr.status, errorResponse{Error: herr.msg})
}

// serveDiff loads both sides through the historical cache and writes the
// drift report.
func (s *Server) serveDiff(w http.ResponseWriter, dataset, bDataset, strategy string, a, b int) {
	aKey := dataset + "/" + strategy
	bKey := bDataset + "/" + strategy
	a, herr := s.resolveVersion(aKey, a)
	if herr == nil {
		b, herr = s.resolveVersion(bKey, b)
	}
	if herr != nil {
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
		return
	}
	load := func(key string, version int) (*summary.Summary, *httpError) {
		ent, herr := s.lookupEntry(key, version)
		if herr != nil {
			return nil, herr
		}
		sum, ok := ent.Estimator.(*summary.Summary)
		if !ok {
			return nil, &httpError{status: http.StatusUnprocessableEntity,
				msg: fmt.Sprintf("snapshot %q v%d is a %T, which has no diffable marginals", key, version, ent.Estimator)}
		}
		return sum, nil
	}
	sumA, herr := load(aKey, a)
	if herr != nil {
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
		return
	}
	sumB, herr := load(bKey, b)
	if herr != nil {
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
		return
	}
	rep, err := summary.Diff(sumA, sumB)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	resp := DiffResponse{Dataset: dataset, Strategy: strategy, A: a, B: b, DiffReport: rep}
	if bDataset != dataset {
		resp.BDataset = bDataset
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveVersion maps version 0 onto the dataset key's newest snapshot
// version; positive versions pass through.
func (s *Server) resolveVersion(key string, version int) (int, *httpError) {
	if version > 0 {
		return version, nil
	}
	man, err := s.opts.Store.Versions(key)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return 0, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("dataset key %q has no snapshots", key)}
		}
		return 0, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	last, ok := man.Latest()
	if !ok {
		return 0, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("dataset key %q has no snapshots", key)}
	}
	return last.Version, nil
}
