package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/summary"
)

// LiveOptions configure live ingestion for one dataset.
type LiveOptions struct {
	// Dataset are the build options the dataset's estimators were (or will
	// be) built with; refreshes maintain exactly the strategy set these
	// options produced.
	Dataset DatasetOptions
	// RefreshRows is the auto-refresh threshold: when at least this many
	// rows are pending after an ingest, the ingest triggers a refresh
	// before returning (0 disables threshold-based refreshing; Refresh can
	// still be called explicitly, e.g. from an interval ticker).
	RefreshRows int
}

// Live couples one dataset's mutable relation with the registry entries
// serving it: appends accumulate in the relation, and Refresh folds them
// into every registered estimator of the dataset with an atomic hot swap —
// queries keep flowing against the previous versions until the new ones
// are ready, then switch all at once.
type Live struct {
	dataset string
	reg     *Registry
	st      *store.Store
	opts    LiveOptions
	mut     *relation.Mutable
	now     func() time.Time

	// refreshMu serializes refreshes (the expensive derive-and-publish
	// sequence) without blocking the cheap paths: counters and Status()
	// are guarded by mu alone, so /metrics and ingest responses never
	// wait behind a solve.
	refreshMu sync.Mutex

	mu           sync.Mutex
	cache        *Cache // set by Server.AttachLive; nil until then
	servedRows   int
	generation   uint64
	ingestedRows uint64
	ingests      uint64
	refreshes    uint64
	rebuilds     uint64
	lastRefresh  time.Time
}

// NewLive wires live ingestion over a dataset whose estimators are
// already registered (either by BuildDataset or by a snapshot restore).
// The mutable relation must hold exactly the rows the registered MaxEnt
// summary covers; st may be nil (no snapshot publication).
func NewLive(reg *Registry, dataset string, mut *relation.Mutable, st *store.Store, opts LiveOptions) (*Live, error) {
	if dataset == "" {
		return nil, errors.New("server: live dataset name must not be empty")
	}
	ent, ok := reg.Get(dataset + "/maxent")
	if !ok {
		return nil, fmt.Errorf("server: live dataset %q: no %q registered", dataset, dataset+"/maxent")
	}
	sum, ok := ent.Estimator.(*summary.Summary)
	if !ok {
		return nil, fmt.Errorf("server: live dataset %q: %q is a %T, want a refreshable summary",
			dataset, ent.Name, ent.Estimator)
	}
	if got, want := mut.NumRows(), int(sum.N()); got != want {
		return nil, fmt.Errorf("server: live dataset %q: relation has %d rows, served summary covers %d",
			dataset, got, want)
	}
	// Row count alone cannot tell a regenerated relation from the one the
	// summary was built over (e.g. same -rows, different -seed on a
	// snapshot restart). The complete 1D statistic families are an exact
	// content fingerprint of the per-attribute histograms — compare them,
	// so a refresh can never silently fold deltas into a model of
	// different base data.
	frozen, _ := mut.Freeze()
	set := sum.Stats()
	if len(set.OneD) != frozen.NumAttrs() {
		return nil, fmt.Errorf("server: live dataset %q: summary covers %d attributes, relation has %d",
			dataset, len(set.OneD), frozen.NumAttrs())
	}
	for a := range set.OneD {
		hist := frozen.Histogram1D(a)
		if len(hist) != len(set.OneD[a]) {
			return nil, fmt.Errorf("server: live dataset %q: attribute %d domain size %d vs summary's %d",
				dataset, a, len(hist), len(set.OneD[a]))
		}
		for v, c := range hist {
			if float64(c) != set.OneD[a][v] {
				return nil, fmt.Errorf("server: live dataset %q: relation content differs from the served summary's statistics (attribute %d value %d: %d rows vs statistic %g)",
					dataset, a, v, c, set.OneD[a][v])
			}
		}
	}
	return &Live{
		dataset:    dataset,
		reg:        reg,
		st:         st,
		opts:       opts,
		mut:        mut,
		servedRows: mut.NumRows(),
		generation: 1,
		now:        time.Now,
	}, nil
}

// BuildLiveDataset builds and registers the dataset's estimators over the
// relation's current rows (see BuildDataset) and returns the Live handle
// managing its ingestion lifecycle, plus the registered names.
func BuildLiveDataset(reg *Registry, dataset string, mut *relation.Mutable, opts LiveOptions) (*Live, []string, error) {
	frozen, _ := mut.Freeze()
	names, err := BuildDataset(reg, dataset, frozen, opts.Dataset)
	if err != nil {
		return nil, nil, err
	}
	live, err := NewLive(reg, dataset, mut, opts.Dataset.Store, opts)
	if err != nil {
		return nil, nil, err
	}
	return live, names, nil
}

// Dataset returns the dataset name.
func (l *Live) Dataset() string { return l.dataset }

// Mutable returns the live relation.
func (l *Live) Mutable() *relation.Mutable { return l.mut }

// attachCache hands the server's result cache to the live dataset so
// refreshes can reclaim replaced entries.
func (l *Live) attachCache(c *Cache) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cache = c
}

// IngestResult is the outcome of one ingest batch (the body of a
// successful POST /ingest/{dataset}).
type IngestResult struct {
	Dataset     string `json:"dataset"`
	Accepted    int    `json:"accepted"`
	TotalRows   int    `json:"total_rows"`
	PendingRows int    `json:"pending_rows"`
	Generation  uint64 `json:"generation"`
	// Refreshed reports whether this ingest crossed the refresh threshold
	// and hot-swapped new estimator versions before returning.
	Refreshed bool `json:"refreshed"`
	// RefreshNS is the refresh duration when Refreshed is true.
	RefreshNS int64 `json:"refresh_ns,omitempty"`
	// RefreshError reports a failed (or partially failed, e.g. snapshot
	// publication) threshold-triggered refresh. The append itself
	// succeeded — the rows are in and will be folded in by the next
	// refresh — so this is informational, not a request failure: clients
	// must NOT retry the batch.
	RefreshError string `json:"refresh_error,omitempty"`
}

// Ingest appends a batch of encoded rows (all-or-nothing) and, when the
// pending backlog crosses the refresh threshold, refreshes the dataset's
// estimators before returning. An error means nothing was appended;
// conversely, once the rows are in, a refresh failure is reported in
// IngestResult.RefreshError rather than as an error, so clients never
// see a failure response for data that was actually accepted (a retry
// would double-ingest it).
func (l *Live) Ingest(rows [][]int) (IngestResult, error) {
	if len(rows) == 0 {
		return IngestResult{}, errors.New("server: ingest batch is empty")
	}
	if _, err := l.mut.AppendRows(rows); err != nil {
		return IngestResult{}, err
	}
	l.mu.Lock()
	l.ingestedRows += uint64(len(rows))
	l.ingests++
	res := IngestResult{
		Dataset:     l.dataset,
		Accepted:    len(rows),
		TotalRows:   l.mut.NumRows(),
		PendingRows: l.mut.NumRows() - l.servedRows,
		Generation:  l.generation,
	}
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
		// nothing to fold in; only report a refresh that swapped versions
		// in (which can be true even under a publication error).
		if out.DeltaRows > 0 && len(out.Swapped) > 0 {
			res.Refreshed = true
			res.RefreshNS = l.now().Sub(start).Nanoseconds()
		}
		l.mu.Lock()
		res.PendingRows = l.mut.NumRows() - l.servedRows
		res.Generation = l.generation
		l.mu.Unlock()
	}
	return res, nil
}

// RefreshOutcome reports one refresh.
type RefreshOutcome struct {
	Dataset    string   `json:"dataset"`
	DeltaRows  int      `json:"delta_rows"`
	Rebuilt    bool     `json:"rebuilt"`
	Sweeps     int      `json:"sweeps"`
	Generation uint64   `json:"generation"`
	Swapped    []string `json:"swapped,omitempty"`
}

// Refresh folds all pending rows into new versions of every registered
// estimator of the dataset and hot-swaps them in. With no pending rows it
// is a cheap no-op. All new versions are built before any swap happens,
// so the strategy set moves between consistent states even if a build
// fails halfway. Refreshes are serialized among themselves but never
// block ingest responses or Status/metrics reads.
func (l *Live) Refresh() (RefreshOutcome, error) {
	l.refreshMu.Lock()
	defer l.refreshMu.Unlock()
	return l.refresh()
}

// refresh runs one refresh; the caller holds refreshMu (which is what
// makes the servedRows read-then-advance below safe — only refresh paths
// move it).
func (l *Live) refresh() (RefreshOutcome, error) {
	l.mu.Lock()
	served := l.servedRows
	gen := l.generation
	cache := l.cache
	l.mu.Unlock()

	full, _ := l.mut.Freeze()
	pending := full.NumRows() - served
	out := RefreshOutcome{Dataset: l.dataset, Generation: gen}
	if pending <= 0 {
		return out, nil
	}

	maxentName := l.dataset + "/maxent"
	ent, ok := l.reg.Get(maxentName)
	if !ok {
		return out, fmt.Errorf("server: refresh %q: no %q registered", l.dataset, maxentName)
	}
	sum, ok := ent.Estimator.(*summary.Summary)
	if !ok {
		return out, fmt.Errorf("server: refresh %q: %q is a %T, want a refreshable summary",
			l.dataset, maxentName, ent.Estimator)
	}

	// A refresh maintains the strategies being served, which after a
	// snapshot restore lack the exact engine (it answers from rows and does
	// not restore); it never invents serving entries.
	opts := l.opts.Dataset
	_, serving := l.reg.Get(l.dataset + "/exact")
	opts.SkipExact = !serving

	// Every new version is derived before anything is published, so a
	// failure here leaves serving untouched.
	list, info, err := Derive(l.dataset, full, opts, sum)
	if err != nil {
		return out, err
	}

	// Each publish is an atomic hot swap that drops the replaced generation's
	// cached answers and then persists the model; queries racing the loop see
	// a consistent (name, estimator, generation) triple per entry. A failed
	// save does not undo the swap — serving the fresh model matters more than
	// persisting it — but is reported so the operator knows the store is
	// behind.
	var publishErr error
	for _, s := range list {
		ent, err := publish(l.reg, cache, l.st, s, full.Schema(), 0, false)
		if err != nil {
			publishErr = errors.Join(publishErr, err)
		}
		if ent.Generation > 0 {
			out.Swapped = append(out.Swapped, s.Name)
		}
	}

	l.mu.Lock()
	l.servedRows = full.NumRows()
	l.generation++
	l.refreshes++
	if info.Rebuilt {
		l.rebuilds++
	}
	l.lastRefresh = l.now()
	out.Generation = l.generation
	l.mu.Unlock()

	out.DeltaRows = pending
	out.Rebuilt = info.Rebuilt
	out.Sweeps = info.Solver.Sweeps
	return out, publishErr
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
// staleness measure: rows the served summaries have not seen yet.
func (l *Live) Status() LiveStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LiveStatus{
		Dataset:      l.dataset,
		Generation:   l.generation,
		TotalRows:    l.mut.NumRows(),
		ServedRows:   l.servedRows,
		IngestedRows: l.ingestedRows,
		Ingests:      l.ingests,
		Refreshes:    l.refreshes,
		Rebuilds:     l.rebuilds,
	}
	st.PendingRows = st.TotalRows - st.ServedRows
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
// anywhere, is parsed in one pass into one []int slab, each row a capped
// sub-slice of it. Any other body — another key or key case, a duplicate
// key, null, a string, a float or exponent, a leading zero, an
// overflowing integer, deeper nesting, or an arity mismatch — is decoded
// again by encoding/json, which stays the reference: it decides what is
// accepted and words every error.
func DecodeJSONRows(sch *schema.Schema, body []byte) ([][]int, error) {
	if rows, ok := decodeRowsFast(body, sch.NumAttrs()); ok {
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

// decodeRowsFast parses {"rows":[[int,…],…]} whose every row has arity
// values, or reports false for DecodeJSONRows to fall back on. Each '['
// past the outer one opens a row, so counting them sizes the slab and the
// row headers exactly for any body it accepts, and no row takes more than
// arity values, so neither regrows. A row takes at least 2·arity+2 bytes
// with its separator, so a body with more '[' than that allows (nested
// brackets, say) is not this shape and allocates nothing.
func decodeRowsFast(body []byte, arity int) ([][]int, bool) {
	p := rowsParser{b: body}
	if !p.literal("{") || !p.literal(`"rows"`) || !p.literal(":") || !p.literal("[") {
		return nil, false
	}
	n := bytes.Count(body, []byte{'['}) - 1
	if n*(2*arity+2) > len(body) {
		return nil, false
	}
	slab := make([]int, 0, n*arity)
	rows := make([][]int, 0, n)
	for sep := p.open(); sep != ']'; sep = p.sep() {
		if sep == 0 || !p.literal("[") {
			return nil, false
		}
		lo := len(slab)
		for vsep := p.open(); vsep != ']'; vsep = p.sep() {
			if vsep == 0 || len(slab)-lo == arity {
				return nil, false
			}
			v, ok := p.int()
			if !ok {
				return nil, false
			}
			slab = append(slab, v)
		}
		if len(slab)-lo != arity {
			return nil, false
		}
		rows = append(rows, slab[lo:len(slab):len(slab)])
	}
	if !p.literal("}") {
		return nil, false
	}
	p.skipSpace()
	return rows, p.i == len(body)
}

// rowsParser is decodeRowsFast's cursor over the body.
type rowsParser struct {
	b []byte
	i int
}

// skipSpace advances past JSON whitespace and returns the next byte, or 0
// at the end of the body.
func (p *rowsParser) skipSpace() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes one token, s, after any whitespace.
func (p *rowsParser) literal(s string) bool {
	p.skipSpace()
	if !bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		return false
	}
	p.i += len(s)
	return true
}

// open starts an array's elements just past its '[': it consumes the ']'
// of an empty array and returns it, and otherwise returns ',' as if a
// separator preceded the first element.
func (p *rowsParser) open() byte {
	if p.skipSpace() == ']' {
		p.i++
		return ']'
	}
	return ','
}

// sep consumes the separator after an array element and returns it: ','
// (another element follows) or ']' (the array closed); anything else is 0.
func (p *rowsParser) sep() byte {
	switch c := p.skipSpace(); c {
	case ',', ']':
		p.i++
		return c
	}
	return 0
}

// int parses an optionally negative JSON integer without fraction or
// exponent that fits in an int.
func (p *rowsParser) int() (int, bool) {
	p.skipSpace()
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := uint64(b[i]) - '0'
		if d > 9 {
			break
		}
		u = u*10 + d // 19 digits cannot wrap a uint64
	}
	p.i = i
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	switch digits := i - start; {
	case digits == 0, digits > 19, u > limit, digits > 1 && b[start] == '0':
		return 0, false
	case neg:
		return int(-u), true // -u wraps to -(MaxInt+1) exactly at the limit
	}
	return int(u), true
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
