package server

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/summary"
)

// LiveOptions configure live ingestion for one dataset.
type LiveOptions struct {
	// Dataset are the build options the dataset's model was (or will be)
	// built with; a refresh re-solves with their solver options and saves
	// to their store.
	Dataset DatasetOptions
	// RefreshRows is the auto-refresh threshold: when at least this many
	// rows are pending after an ingest, the ingest triggers a refresh
	// before returning (0 disables threshold-based refreshing; Refresh can
	// still be called explicitly, e.g. from an interval ticker).
	RefreshRows int
}

// Live couples one dataset's served model with the rows ingested since it
// was last refreshed: appends accumulate as pending rows, and Refresh folds
// them into a new model, saves it, then swaps it in atomically — queries
// keep flowing against the previous version until the new one is ready. A
// Live keeps no other row: the summary's statistic counts are all a refresh
// reads, so a model restored from a snapshot takes writes like a built one.
type Live struct {
	dataset string
	reg     *Registry
	opts    LiveOptions
	sch     *schema.Schema
	now     func() time.Time

	// refreshMu serializes refreshes (the expensive fold-and-publish
	// sequence) without blocking the cheap paths: appends, counters and
	// Status() are guarded by mu alone, so ingests and /metrics never wait
	// behind a solve.
	refreshMu sync.Mutex

	mu sync.Mutex
	// pending holds the rows accepted since the last refresh's cut, in
	// arrival order. A refresh folds a prefix of it and cuts that prefix
	// off; rows appended while it ran stay pending.
	pending      *relation.Relation
	servedRows   int
	ingestedRows uint64
	ingests      uint64
	refreshes    uint64
	rebuilds     uint64
	lastRefresh  time.Time
}

// ResumeLive starts live ingestion for a dataset whose model is already
// registered as "<dataset>/maxent", built (BuildDataset) or restored from a
// snapshot (RestoreStore) alike, with no rows pending. Refreshes publish to
// opts.Dataset.Store when it is set.
func ResumeLive(reg *Registry, dataset string, opts LiveOptions) (*Live, error) {
	if dataset == "" {
		return nil, errors.New("server: live dataset name must not be empty")
	}
	sum, err := servedSummary(reg, dataset)
	if err != nil {
		return nil, err
	}
	return &Live{
		dataset:    dataset,
		reg:        reg,
		opts:       opts,
		sch:        sum.Schema(),
		now:        time.Now,
		pending:    relation.New(sum.Schema()),
		servedRows: int(sum.N()),
	}, nil
}

// NewLive checks that mut holds as many rows as the served summary covers,
// then is ResumeLive publishing to st; mut is not kept.
// Kept only because the frozen bench/ module calls it.
func NewLive(reg *Registry, dataset string, mut *relation.Mutable, st *store.Store, opts LiveOptions) (*Live, error) {
	sum, err := servedSummary(reg, dataset)
	if err != nil {
		return nil, err
	}
	if got, want := mut.NumRows(), int(sum.N()); got != want {
		return nil, fmt.Errorf("server: live dataset %q: relation has %d rows, served summary covers %d",
			dataset, got, want)
	}
	opts.Dataset.Store = st
	return ResumeLive(reg, dataset, opts)
}

// servedSummary returns the summary registered as the dataset's model.
func servedSummary(reg *Registry, dataset string) (*summary.Summary, error) {
	name := dataset + "/maxent"
	ent, ok := reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("server: live dataset %q: no %q registered", dataset, name)
	}
	sum, ok := ent.Estimator.(*summary.Summary)
	if !ok {
		return nil, fmt.Errorf("server: live dataset %q: %q is a %T, want a refreshable summary",
			dataset, name, ent.Estimator)
	}
	return sum, nil
}

// BuildLiveDataset builds and registers the dataset's model over the
// relation's current rows (see BuildDataset) and returns the Live handle
// managing its ingestion lifecycle, plus the registered entry. mut is not
// kept.
func BuildLiveDataset(reg *Registry, dataset string, mut *relation.Mutable, opts LiveOptions) (*Live, Entry, error) {
	frozen, _ := mut.Freeze()
	ent, err := BuildDataset(reg, dataset, frozen, opts.Dataset)
	if err != nil {
		return nil, Entry{}, err
	}
	live, err := ResumeLive(reg, dataset, opts)
	if err != nil {
		return nil, Entry{}, err
	}
	return live, ent, nil
}

// Dataset returns the dataset name.
func (l *Live) Dataset() string { return l.dataset }

// Schema returns the schema ingested rows are encoded against: the served
// model's.
func (l *Live) Schema() *schema.Schema { return l.sch }

// IngestResult is the outcome of one ingest batch (the body of a
// successful POST /ingest/{dataset}). On a node with a store the batch
// survives a restart once a result reports it refreshed: a model is swapped
// in only after it was saved. Pending rows live only in the process.
type IngestResult struct {
	Dataset     string `json:"dataset"`
	Accepted    int    `json:"accepted"`
	TotalRows   int    `json:"total_rows"`
	PendingRows int    `json:"pending_rows"`
	// Generation is the version of the model serving when the ingest
	// returned (Entry.Version): once Refreshed, the version that holds the
	// batch.
	Generation uint64 `json:"generation"`
	// Refreshed reports whether this ingest crossed the refresh threshold
	// and saved and swapped in a new model version before returning.
	Refreshed bool `json:"refreshed"`
	// RefreshNS is the refresh duration when Refreshed is true.
	RefreshNS int64 `json:"refresh_ns,omitempty"`
	// RefreshError reports a failed threshold-triggered refresh (a solve or
	// a snapshot save): the previous model still serves. The append itself
	// succeeded — the rows are pending and will be folded in by the next
	// refresh — so this is informational, not a request failure: clients
	// must NOT retry the batch.
	RefreshError string `json:"refresh_error,omitempty"`
}

// Ingest appends a batch of encoded rows (all-or-nothing) and, when the
// pending backlog crosses the refresh threshold, refreshes the dataset's
// model before returning. An error means nothing was appended;
// conversely, once the rows are in, a refresh failure is reported in
// IngestResult.RefreshError rather than as an error, so clients never
// see a failure response for data that was actually accepted (a retry
// would double-ingest it).
func (l *Live) Ingest(rows [][]int) (IngestResult, error) {
	if len(rows) == 0 {
		return IngestResult{}, errors.New("server: ingest batch is empty")
	}
	l.mu.Lock()
	if l.pending.NumRows() == 0 {
		// Size an empty buffer to its first batch: a threshold ingest is cut
		// at once, and a default 65,536-row part would be garbage by then.
		l.pending = relation.NewWithCapacity(l.sch, len(rows))
	}
	if err := l.pending.AppendRows(rows); err != nil {
		l.mu.Unlock()
		return IngestResult{}, err
	}
	l.ingestedRows += uint64(len(rows))
	l.ingests++
	res := IngestResult{Dataset: l.dataset, Accepted: len(rows)}
	l.fill(&res)
	needRefresh := l.opts.RefreshRows > 0 && res.PendingRows >= l.opts.RefreshRows
	l.mu.Unlock()

	if needRefresh {
		start := l.now()
		out, err := l.Refresh()
		if err != nil {
			// The append already succeeded, so a refresh (or snapshot
			// publication) failure is reported on the result, never as a
			// request failure — a retry would double-ingest the batch.
			res.RefreshError = err.Error()
		}
		// A concurrent ingest may have refreshed first, leaving this one
		// nothing to fold in; only report a refresh that swapped a version in.
		if out.DeltaRows > 0 {
			res.Refreshed = true
			res.RefreshNS = l.now().Sub(start).Nanoseconds()
		}
		l.mu.Lock()
		l.fill(&res)
		l.mu.Unlock()
	}
	return res, nil
}

// fill sets res's row counts and generation; the caller holds mu.
func (l *Live) fill(res *IngestResult) {
	res.PendingRows = l.pending.NumRows()
	res.TotalRows = l.servedRows + res.PendingRows
	res.Generation = l.version()
}

// version returns the served model's Entry.Version.
func (l *Live) version() uint64 {
	ent, _ := l.reg.Get(l.dataset + "/maxent")
	return uint64(ent.Version)
}

// RefreshOutcome reports one refresh.
type RefreshOutcome struct {
	Dataset    string `json:"dataset"`
	DeltaRows  int    `json:"delta_rows"`
	Rebuilt    bool   `json:"rebuilt"`
	Sweeps     int    `json:"sweeps"`
	Generation uint64 `json:"generation"`
}

// Refresh folds all pending rows into a new version of the dataset's model,
// saves it when a store is configured, and hot-swaps it in. With no pending
// rows it is a cheap no-op. A failed fold or save leaves the previous model
// serving and the rows pending. Refreshes are serialized among themselves
// but never block ingest responses or Status/metrics reads.
func (l *Live) Refresh() (RefreshOutcome, error) {
	l.refreshMu.Lock()
	defer l.refreshMu.Unlock()
	return l.refresh()
}

// refresh runs one refresh; the caller holds refreshMu (which is what makes
// the cut below safe — only refresh paths remove pending rows).
func (l *Live) refresh() (RefreshOutcome, error) {
	l.mu.Lock()
	delta, _ := l.pending.Slice(0, l.pending.NumRows())
	out := RefreshOutcome{Dataset: l.dataset, Generation: l.version()}
	l.mu.Unlock()
	if delta.NumRows() == 0 {
		return out, nil
	}

	sum, err := servedSummary(l.reg, l.dataset)
	if err != nil {
		return out, err
	}
	next, info, err := sum.Fold(delta, summary.RefreshOptions{Solver: l.opts.Dataset.Summary.Solver})
	if err != nil {
		return out, fmt.Errorf("server: dataset %q: maxent: %w", l.dataset, err)
	}

	// The publish saves the model, then swaps it in. A failed save swaps
	// nothing: a served model the store does not hold would be lost by a
	// restart with the rows it folded, so they stay pending for the next
	// refresh instead.
	ent, err := publish(l.reg, l.opts.Dataset.Store, l.dataset+"/maxent", next, l.sch, 0, false)
	if err != nil {
		return out, err
	}

	l.mu.Lock()
	// Cut the folded prefix; rows appended since the delta was taken stay.
	l.pending, _ = l.pending.Slice(delta.NumRows(), l.pending.NumRows())
	l.servedRows += delta.NumRows()
	l.refreshes++
	if info.Rebuilt {
		l.rebuilds++
	}
	l.lastRefresh = l.now()
	l.mu.Unlock()

	out.Generation = uint64(ent.Version)
	out.DeltaRows = delta.NumRows()
	out.Rebuilt = info.Rebuilt
	out.Sweeps = info.Solver.Sweeps
	return out, nil
}

// LiveStatus is the per-dataset ingestion/staleness block of /metrics.
type LiveStatus struct {
	Dataset      string `json:"dataset"`
	Generation   uint64 `json:"generation"`
	TotalRows    int    `json:"total_rows"`
	ServedRows   int    `json:"served_rows"`
	PendingRows  int    `json:"pending_rows"`
	IngestedRows uint64 `json:"ingested_rows"`
	Ingests      uint64 `json:"ingests"`
	Refreshes    uint64 `json:"refreshes"`
	Rebuilds     uint64 `json:"rebuilds"`
	// LastRefreshUnixNS is 0 until the first refresh.
	LastRefreshUnixNS int64 `json:"last_refresh_unix_ns"`
}

// Status returns the current ingestion counters. PendingRows is the
// staleness measure: rows the served model has not seen yet.
func (l *Live) Status() LiveStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LiveStatus{
		Dataset:      l.dataset,
		Generation:   l.version(),
		ServedRows:   l.servedRows,
		PendingRows:  l.pending.NumRows(),
		IngestedRows: l.ingestedRows,
		Ingests:      l.ingests,
		Refreshes:    l.refreshes,
		Rebuilds:     l.rebuilds,
	}
	st.TotalRows = st.ServedRows + st.PendingRows
	if !l.lastRefresh.IsZero() {
		st.LastRefreshUnixNS = l.lastRefresh.UnixNano()
	}
	return st
}

// --- row decoding ------------------------------------------------------

// DecodeJSONRows decodes an IngestRequest body of already-encoded rows and
// checks every row's arity against the schema (AppendRows validates
// domains). The body must end after the JSON value; anything but
// whitespace after it is refused.
//
// The shape every client sends, {"rows":[[int,…],…]} with JSON whitespace
// anywhere, is parsed in one pass by query.DecodeJSONRows, the lexer of the
// read path. Any other body — another key or key case, a duplicate key,
// null, a string, a negative number, a float or exponent, a leading zero,
// an integer of 19 digits or more, deeper nesting, or an arity mismatch —
// is decoded again by encoding/json, which stays the reference: it decides
// what is accepted and words every error.
func DecodeJSONRows(sch *schema.Schema, body []byte) ([][]int, error) {
	if rows, ok := query.DecodeJSONRows(body, sch.NumAttrs()); ok {
		return rows, nil
	}
	var req IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("malformed request body: %v", err)
	}
	for i, row := range req.Rows {
		if len(row) != sch.NumAttrs() {
			return nil, fmt.Errorf("row %d has %d values, schema has %d attributes", i, len(row), sch.NumAttrs())
		}
		// encoding/json leaves slack capacity behind a row; cap it, as the
		// slab rows are, so an append to one row can never write elsewhere.
		req.Rows[i] = row[:len(row):len(row)]
	}
	return req.Rows, nil
}

// decodeJSONIngest reads a JSON ingest body whole into a pooled buffer and
// decodes its rows, which never alias the buffer.
func decodeJSONIngest(sch *schema.Schema, body io.Reader) ([][]int, error) {
	pb := bufPool.Get().(*pooledBuf)
	defer bufPool.Put(pb)
	data, err := pb.readAll(body)
	if err != nil {
		return nil, fmt.Errorf("malformed request body: %v", err)
	}
	return DecodeJSONRows(sch, data)
}

// DecodeCSVRows reads raw CSV rows (no header) and encodes them against
// the schema via relation.EncodeRecord — the same field-encoding path
// offline CSV loading uses, so live and batch ingestion cannot drift.
func DecodeCSVRows(sch *schema.Schema, r io.Reader) ([][]int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var rows [][]int
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv row %d: %v", line, err)
		}
		tuple, err := relation.EncodeRecord(sch, rec, nil)
		if err != nil {
			return nil, fmt.Errorf("csv row %d: %v", line, err)
		}
		rows = append(rows, tuple)
	}
	if len(rows) == 0 {
		return nil, errors.New("csv body holds no rows")
	}
	return rows, nil
}
