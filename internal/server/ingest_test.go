package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// newLiveServer builds a live synthetic dataset behind an httptest server.
func newLiveServer(t *testing.T, rows int, liveOpts server.LiveOptions) (*httptest.Server, *server.Registry, *server.Server, *server.Live) {
	t.Helper()
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(rows, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, liveOpts)
	if err != nil {
		t.Fatalf("BuildLiveDataset: %v", err)
	}
	srv := server.New(reg, server.Options{})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg, srv, live
}

// syntheticRows draws encoded rows compatible with the synthetic schema.
func syntheticRows(n int, value int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{value % 4, value % 6, value % 3, value % 8}
	}
	return rows
}

// TestIngestHTTPRoundTrip is the acceptance-criterion round trip: ingest
// rows via POST /ingest/{dataset}, observe the generation bump on
// /metrics, and confirm that served answers reflect the new data.
func TestIngestHTTPRoundTrip(t *testing.T) {
	ts, _, _, _ := newLiveServer(t, 3000, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 300}},
		},
		RefreshRows: 500,
	})

	// All ingested rows share region=3 (LATAM), so the count of region=3
	// must grow by about the ingested volume once refreshed.
	pred := query.NewPredicate(4)
	pred.WhereEq(0, 3)
	queryCount := func() float64 {
		resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d: %s", resp.StatusCode, body)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr.Count
	}
	before := queryCount()

	// Below the threshold: accepted but not refreshed.
	resp, body := postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: syntheticRows(200, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var ir server.IngestResult
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 200 || ir.Refreshed || ir.PendingRows != 200 {
		t.Fatalf("first ingest: %+v, want accepted=200 refreshed=false pending=200", ir)
	}

	// Crossing the threshold refreshes before responding.
	resp, body = postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: syntheticRows(400, 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Refreshed || ir.PendingRows != 0 || ir.TotalRows != 3600 {
		t.Fatalf("second ingest: %+v, want refreshed=true pending=0 total=3600", ir)
	}

	// /metrics must report the generation bump and zero staleness.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr server.MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Datasets) != 1 {
		t.Fatalf("metrics: %d datasets, want 1", len(mr.Datasets))
	}
	ds := mr.Datasets[0]
	if ds.Dataset != "demo" || ds.Generation != 2 || ds.PendingRows != 0 || ds.TotalRows != 3600 || ds.IngestedRows != 600 {
		t.Fatalf("metrics dataset block: %+v", ds)
	}
	foundMaxent := false
	for _, e := range mr.Estimators {
		if e.Name == "demo/maxent" {
			foundMaxent = true
			if e.Generation != 2 {
				t.Fatalf("demo/maxent generation = %d, want 2 after one swap", e.Generation)
			}
		}
	}
	if !foundMaxent {
		t.Fatal("metrics: demo/maxent missing")
	}

	// Served answers must reflect the new data: 600 new region=3 rows on a
	// 3000-row base. The summary is approximate, so just require the bulk
	// of the mass to show up.
	after := queryCount()
	if after < before+400 {
		t.Fatalf("count(region=LATAM) %g -> %g after ingesting 600 such rows; refresh not visible", before, after)
	}

	// A 1D count is a statistic the model matches: it must agree with a full
	// scan of the grown relation, which no node keeps, so build it here.
	truth := grownTruth(t, 3000, syntheticRows(200, 3), syntheticRows(400, 3)).Count(pred)
	if math.Abs(after-truth) > 1 {
		t.Fatalf("count(region=LATAM) = %g after the refresh, a scan of base + ingested rows gives %g", after, truth)
	}
}

// grownTruth is the exact engine over newLiveServer's base relation of rows
// rows followed by the ingested batches.
func grownTruth(t *testing.T, rows int, batches ...[][]int) *exact.Engine {
	t.Helper()
	mut := relation.NewMutable(experiment.SyntheticRelation(rows, rand.New(rand.NewSource(1))))
	for _, b := range batches {
		if _, err := mut.AppendRows(b); err != nil {
			t.Fatal(err)
		}
	}
	rel, _ := mut.Freeze()
	return exact.New(rel)
}

// TestEstimatorsCertificateAcrossRefresh reads the solver certificate GET
// /estimators reports for a model that stops at its sweep cap: a threshold
// ingest swaps in a refreshed model whose max_violation is no higher than
// the one it replaced, still unconverged, and an estimator that is not a
// summary (an exact engine registered beside it) carries no certificate.
func TestEstimatorsCertificateAcrossRefresh(t *testing.T) {
	ts, reg, _, _ := newLiveServer(t, 3000, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 3}},
		},
		RefreshRows: 500,
	})
	base := grownTruth(t, 3000).Relation()
	if err := reg.Register("demo/exact", exact.New(base), base.Schema()); err != nil {
		t.Fatal(err)
	}
	certificates := func() (maxent server.EstimatorInfo) {
		t.Helper()
		resp, body := get(t, ts.URL+"/estimators")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimators: status %d: %s", resp.StatusCode, body)
		}
		var er server.EstimatorsResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		var exact server.EstimatorInfo
		for _, e := range er.Estimators {
			switch e.Name {
			case "demo/maxent":
				maxent = e
			case "demo/exact":
				exact = e
			}
		}
		// Absent fields leave the embedded pointer nil.
		if exact.Name == "" || exact.Certificate != nil {
			t.Fatalf("demo/exact missing or carrying a certificate: %s", body)
		}
		if maxent.Certificate == nil {
			t.Fatalf("demo/maxent has no certificate: %s", body)
		}
		return maxent
	}
	before := certificates()
	if before.Converged || before.Sweeps != 3 || before.MaxViolation <= 0 {
		t.Fatalf("the build's certificate %+v, want 3 sweeps, unconverged", *before.Certificate)
	}
	resp, body := postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: syntheticRows(600, 3)})
	var ir server.IngestResult
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ir) != nil || !ir.Refreshed {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	after := certificates()
	if after.Generation != before.Generation+1 {
		t.Fatalf("generation %d -> %d across a threshold ingest", before.Generation, after.Generation)
	}
	if after.MaxViolation > before.MaxViolation || after.Converged {
		t.Fatalf("certificate %+v after the refresh, %+v before: max_violation must not rise", *after.Certificate, *before.Certificate)
	}
}

// TestIngestCSVBody round-trips a CSV ingest: raw values (labels and
// numbers) encoded server-side.
func TestIngestCSVBody(t *testing.T) {
	ts, _, _, live := newLiveServer(t, 1000, server.LiveOptions{
		Dataset: server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}}},
	})
	body := "LATAM,f,web,999.5\nAPAC,a,store,0\n"
	resp, err := http.Post(ts.URL+"/ingest/demo", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir server.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir.Accepted != 2 {
		t.Fatalf("csv ingest: status %d, result %+v", resp.StatusCode, ir)
	}
	if got := live.Status().TotalRows; got != 1002 {
		t.Fatalf("rows = %d, want 1002", got)
	}

	// Malformed CSV (unknown label) is a 400 and appends nothing.
	resp2, err := http.Post(ts.URL+"/ingest/demo", "text/csv", strings.NewReader("NOPE,a,web,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad csv: status %d, want 400", resp2.StatusCode)
	}
	if got := live.Status().TotalRows; got != 1002 {
		t.Fatalf("bad csv appended rows: %d", got)
	}
}

// TestIngestValidation exercises the failure paths of the ingest endpoint.
func TestIngestValidation(t *testing.T) {
	ts, _, _, live := newLiveServer(t, 500, server.LiveOptions{
		Dataset: server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 100}}},
	})

	resp, _ := postJSON(t, ts.URL+"/ingest/unknown", server.IngestRequest{Rows: syntheticRows(1, 0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: [][]int{{1, 2}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong arity: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: [][]int{{99, 0, 0, 0}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out of domain: status %d, want 400", resp.StatusCode)
	}

	// Raw JSON bodies: a refusal is a 400 naming the problem that appends
	// nothing, and every accepted spelling of the batch appends its row.
	for _, tc := range []struct {
		name, body string
		refusal    string // "" when the body is accepted
	}{
		{"syntax error", `{"rows":[[1,2,0,3]`, "malformed request body: unexpected end of JSON input"},
		{"string value", `{"rows":[[1,"2",0,3]]}`, "malformed request body: json: cannot unmarshal string"},
		{"float", `{"rows":[[1,1.0,0,3]]}`, "malformed request body: json: cannot unmarshal number 1.0"},
		{"exponent", `{"rows":[[1,1e2,0,3]]}`, "malformed request body: json: cannot unmarshal number 1e2"},
		{"overflow", `{"rows":[[9223372036854775808,2,0,3]]}`, "malformed request body: json: cannot unmarshal number 9223372036854775808"},
		{"negative value", `{"rows":[[1,-1,0,3]]}`, "value -1 out of domain [0,6)"},
		{"null row", `{"rows":[[1,2,0,3],null]}`, "row 1 has 0 values, schema has 4 attributes"},
		{"trailing second batch", `{"rows":[[0,0,0,0]]}{"rows":[[1,1,1,1]]}`, "malformed request body: invalid character '{' after top-level value"},
		{"empty object", `{}`, "ingest batch is empty"},
		{"empty rows", `{"rows":[]}`, "ingest batch is empty"},
		{"pretty-printed", "{\n\t\"rows\": [\n\t\t[1, 2, 0, 3]\n\t]\n}", ""},
		{"unknown field", `{"rows":[[1,2,0,3]],"source":"sensor-7"}`, ""},
		{"key case", `{"Rows":[[1,2,0,3]]}`, ""},
		{"encoder newline", "{\"rows\":[[1,2,0,3]]}\n", ""},
	} {
		before := live.Status().TotalRows
		resp, err := http.Post(ts.URL+"/ingest/demo", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct {
			Error     string `json:"error"`
			TotalRows int    `json:"total_rows"`
		}
		err = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: response: %v", tc.name, err)
		}
		got := live.Status().TotalRows
		if tc.refusal != "" {
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, tc.refusal) {
				t.Errorf("%s: status %d %q, want 400 containing %q", tc.name, resp.StatusCode, msg.Error, tc.refusal)
			}
			if got != before {
				t.Errorf("%s: refused body changed total_rows %d -> %d", tc.name, before, got)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || msg.TotalRows != before+1 || got != before+1 {
			t.Errorf("%s: status %d, total_rows %d (relation %d), want 200 and %d", tc.name, resp.StatusCode, msg.TotalRows, got, before+1)
			continue
		}
		pending := server.PendingRows(live)
		if row := pending.Row(pending.NumRows()-1, nil); !slices.Equal(row, []int{1, 2, 0, 3}) {
			t.Errorf("%s: appended row %v, want [1 2 0 3]", tc.name, row)
		}
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/ingest/demo", nil)
	if err != nil {
		t.Fatal(err)
	}
	getResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", getResp.StatusCode)
	}
}

// TestSwapWhileQuerying is the dedicated swap/read race test: queries
// hammer the registry over HTTP while estimator versions are hot-swapped
// concurrently. Every request must succeed (zero downtime) and, under
// -race, the registry/cache surfaces must be data-race-free.
func TestSwapWhileQuerying(t *testing.T) {
	ts, reg, _, _ := newLiveServer(t, 1500, server.LiveOptions{
		Dataset: server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 100}}},
	})

	// The swapped entry is an exact engine registered here beside the
	// served model.
	base := grownTruth(t, 1500).Relation()
	if err := reg.Register("demo/exact", exact.New(base), base.Schema()); err != nil {
		t.Fatal(err)
	}
	pred := query.NewPredicate(4)
	pred.WhereEq(0, 1)
	reqBody, err := json.Marshal(server.QueryRequest{Estimator: "demo/exact", Predicate: pred})
	if err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	// Swap the exact engine repeatedly while the readers run.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		rel := experiment.SyntheticRelation(100+i, rng)
		if _, err := server.Swap(reg, "demo/exact", exact.New(rel), rel.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	ent, ok := reg.Get("demo/exact")
	if !ok || ent.Version != 51 {
		t.Fatalf("after 50 swaps: ok=%t version=%d, want 51", ok, ent.Version)
	}
	close(stop)
	readers.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during hot swaps; swaps must be zero-downtime", n)
	}
}

// TestIngestRefreshWhileQuerying drives the full ingest→refresh→swap path
// while queries are in flight — the end-to-end zero-downtime check
// (meaningful under -race).
func TestIngestRefreshWhileQuerying(t *testing.T) {
	ts, _, _, _ := newLiveServer(t, 2000, server.LiveOptions{
		Dataset:     server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}}},
		RefreshRows: 100,
	})

	pred := query.NewPredicate(4)
	pred.WhereEq(1, 2)
	queryBody, err := json.Marshal(server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(queryBody))
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	refreshes := 0
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: syntheticRows(120, i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
		var ir server.IngestResult
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Refreshed {
			refreshes++
		}
	}
	close(stop)
	readers.Wait()
	if refreshes == 0 {
		t.Fatal("no ingest crossed the refresh threshold")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during ingest-triggered swaps", n)
	}
	// Final state: all ingested rows are served.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr server.MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Datasets) != 1 || mr.Datasets[0].TotalRows != 2000+10*120 {
		t.Fatalf("metrics: %+v", mr.Datasets)
	}
}

// TestConcurrentIngestsFoldEveryRowOnce races ingests that cross the refresh
// threshold against explicit refreshes: rows accepted while a refresh runs
// stay pending for the next one, so once everything is folded the served
// model's 1D statistics count every ingested row exactly once — they equal a
// scan of the base plus every batch — and the live dataset holds no row.
func TestConcurrentIngestsFoldEveryRowOnce(t *testing.T) {
	_, reg, _, live := newLiveServer(t, 1000, server.LiveOptions{
		Dataset:     server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 50}}},
		RefreshRows: 90,
	})
	const writers, batches = 4, 12
	var wg sync.WaitGroup
	all := make([][][]int, writers*batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := syntheticRows(20+w*7+b, w+b)
				all[w*batches+b] = rows
				if res, err := live.Ingest(rows); err != nil || res.RefreshError != "" {
					t.Errorf("writer %d batch %d: %+v, %v", w, b, res, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := live.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := server.PendingRows(live).NumRows(); n != 0 {
		t.Fatalf("%d rows still held after the last refresh", n)
	}
	ent, _ := reg.Get("demo/maxent")
	got := ent.Estimator.(*summary.Summary).Stats().OneD
	truth := grownTruth(t, 1000, all...).Relation()
	for a := range got {
		for v, c := range truth.Histogram1D(a) {
			if got[a][v] != float64(c) {
				t.Fatalf("attribute %d value %d: the served model counts %g rows, a scan %d", a, v, got[a][v], c)
			}
		}
	}
}

// TestRefreshPublishesSnapshots checks snapshot publication: every refresh
// saves a new version of the model estimators, and the served version, the
// newest, survives pruning.
func TestRefreshPublishesSnapshots(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(1000, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
			Store:   st,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 3; round++ {
		if _, err := live.Ingest(syntheticRows(50, round)); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	man, err := st.Versions("demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	// v1 from the build, v2..v4 from the refreshes.
	if len(man.Snapshots) != 4 {
		t.Fatalf("%d snapshot versions, want 4", len(man.Snapshots))
	}
	// Pruning keeps the served version, the newest; prune everything else
	// and restore from it.
	if _, err := st.Prune("demo/maxent", 1); err != nil {
		t.Fatal(err)
	}
	restored, _, err := st.Load("demo/maxent", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantN := float64(1000 + 3*50)
	if got := restored.(*summary.Summary).N(); got != wantN {
		t.Fatalf("restored snapshot covers %g rows, want %g", got, wantN)
	}
}

// TestIngestReportsPublishFailureWithoutFailing pins the accepted-rows
// contract under save-then-swap: once a batch is appended, a snapshot save
// failing during the triggered refresh comes back as refresh_error on a 200
// — a 500 would invite the client to re-send rows that are already in — and
// swaps nothing: the rows stay pending and the stored version keeps serving.
// Once the store is writable again, the next refresh folds them in as the
// next version.
func TestIngestReportsPublishFailureWithoutFailing(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(1000, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
			Store:   st,
		},
		RefreshRows: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Options{Store: st})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Make the save fail (works even as root, where a chmod would be
	// bypassed): the dataset key's directory is moved aside and its path
	// occupied by a regular file, so Save's MkdirAll errors.
	dsDir := filepath.Join(dir, "demo", "maxent")
	if err := os.Rename(dsDir, dsDir+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dsDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/ingest/demo", server.IngestRequest{Rows: syntheticRows(20, 1)})
	var res server.IngestResult
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil {
		t.Fatalf("ingest failed outright despite the rows being appended: %d %s", resp.StatusCode, body)
	}
	if res.Accepted != 20 || res.RefreshError == "" {
		t.Fatalf("want 20 rows accepted and the save failure in refresh_error: %+v", res)
	}
	if res.Refreshed || res.PendingRows != 20 || res.Generation != 1 {
		t.Fatalf("a model the store could not save was swapped in: %+v", res)
	}
	ent, ok := reg.Get("demo/maxent")
	if !ok || ent.Version != 1 || ent.Estimator.(*summary.Summary).N() != 1000 {
		t.Fatalf("demo/maxent serves version %d over %g rows, want v1 over 1000", ent.Version, ent.Estimator.(*summary.Summary).N())
	}

	if err := os.Remove(dsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dsDir+".aside", dsDir); err != nil {
		t.Fatal(err)
	}
	out, err := live.Refresh()
	if err != nil || out.DeltaRows != 20 || out.Generation != 2 {
		t.Fatalf("refresh after the repair: %+v, %v; want 20 rows folded as v2", out, err)
	}
	ent, _ = reg.Get("demo/maxent")
	if ent.Version != 2 || ent.Estimator.(*summary.Summary).N() != 1020 || live.Status().PendingRows != 0 {
		t.Fatalf("after the repair demo/maxent serves v%d over %g rows, %d pending; want v2 over 1020, none",
			ent.Version, ent.Estimator.(*summary.Summary).N(), live.Status().PendingRows)
	}
	if _, info, err := st.ReadFramed("demo/maxent", 0); err != nil || info.Version != 2 {
		t.Fatalf("the store's newest version is %d (%v), want 2", info.Version, err)
	}
}

// TestCacheInvalidationOnSwap checks that a hot swap cannot serve cached
// answers of the previous generation.
func TestCacheInvalidationOnSwap(t *testing.T) {
	ts, _, _, live := newLiveServer(t, 2000, server.LiveOptions{
		Dataset: server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}}},
	})

	pred := query.NewPredicate(4)
	pred.WhereEq(0, 2)
	ask := func() (float64, bool) {
		resp, body := postJSON(t, ts.URL+"/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d: %s", resp.StatusCode, body)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr.Count, qr.Cached
	}

	first, cached := ask()
	if cached {
		t.Fatal("first query reported cached")
	}
	if _, cached = ask(); !cached {
		t.Fatal("second identical query missed the cache")
	}

	// Ingest 300 region=APAC rows and refresh: the cached count is stale now
	// and must not be served.
	if _, err := live.Ingest(syntheticRows(300, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, cached := ask()
	if cached {
		t.Fatal("post-swap query served a cached answer from the previous generation")
	}
	// The swap dropped nothing, yet the previous generation's entry stays
	// unreachable to live reads: the re-ask hits the answer just cached.
	if again, cached := ask(); !cached || again != after {
		t.Fatalf("post-swap re-ask: count %g (cached %t), want the post-swap %g from the cache", again, cached, after)
	}
	// A 1D count is a statistic the model matches, so each answer agrees
	// with a full scan of the rows it covers.
	for _, c := range []struct {
		got   float64
		truth *exact.Engine
	}{{first, grownTruth(t, 2000)}, {after, grownTruth(t, 2000, syntheticRows(300, 2))}} {
		if want := c.truth.Count(pred); math.Abs(c.got-want) > 1 {
			t.Fatalf("count(region=APAC) = %g over %d rows, a scan gives %g", c.got, c.truth.Relation().NumRows(), want)
		}
	}
}

// TestIngestAdmission holds POST /ingest to the admission contract its
// handler documents, on a node with one worker slot: an ingest that cannot
// get the slot before its deadline is a 503 that appends nothing, and one
// whose refresh outlives the deadline is a 504, written at the deadline with
// Connection: close, whose rows still land in the version the refresh swaps
// in.
func TestIngestAdmission(t *testing.T) {
	var armed atomic.Bool
	held, hold := make(chan struct{}, 1), make(chan struct{})
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(2000, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		RefreshRows: 100,
		Dataset: server.DatasetOptions{Summary: summary.Options{Solver: solver.Options{
			MaxSweeps: 100,
			// Once armed, a solve (the refresh's) says so on held and
			// blocks until hold closes.
			Progress: func(int, float64) {
				if armed.Load() {
					select {
					case held <- struct{}{}:
					default:
					}
					<-hold
				}
			},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	blk := &blockingEstimator{release: make(chan struct{})}
	if err := reg.Register("slow/blocking", blk, experiment.SyntheticSchema()); err != nil {
		t.Fatal(err)
	}
	const timeout = 80 * time.Millisecond
	srv := server.New(reg, server.Options{Timeout: timeout, MaxConcurrent: 1, CacheSize: -1})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var releaseBlk, releaseHold sync.Once
	defer releaseBlk.Do(func() { close(blk.release) })
	defer releaseHold.Do(func() { close(hold) })

	// post sends one request on a client of its own, so on a connection of
	// its own; the client's timeout turns a 504 that waits for the
	// evaluation into a failure instead of a hang.
	post := func(path string, body []byte) (*http.Response, string, time.Duration) {
		t.Helper()
		c := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
		defer c.CloseIdleConnections()
		start := time.Now()
		resp, err := c.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b), time.Since(start)
	}
	ingestBody := func(n int) []byte {
		b, err := json.Marshal(server.IngestRequest{Rows: syntheticRows(n, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const timedOut = "{\"error\":\"query timed out\"}\n"

	// A read whose estimator blocks answers 504 at its deadline and keeps
	// the slot until the estimator returns.
	if resp, body, _ := post("/query", []byte(`{"estimator":"slow/blocking"}`)); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("blocking read: %d %q; want 504", resp.StatusCode, body)
	}
	before := live.Status()
	if resp, body, _ := post("/ingest/demo", ingestBody(10)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while the slot is held: %d %q; want 503", resp.StatusCode, body)
	}
	if after := live.Status(); after.TotalRows != before.TotalRows || after.PendingRows != before.PendingRows ||
		after.Ingests != before.Ingests {
		t.Fatalf("a refused ingest moved the dataset: %+v, before %+v", after, before)
	}
	releaseBlk.Do(func() { close(blk.release) })

	armed.Store(true)
	resp, body, took := post("/ingest/demo", ingestBody(100))
	if resp.StatusCode != http.StatusGatewayTimeout || body != timedOut {
		t.Fatalf("ingest whose refresh blocks: %d %q; want the 504", resp.StatusCode, body)
	}
	if !resp.Close {
		t.Error("the ingest's 504 keeps its connection open: no Connection: close")
	}
	if took > timeout+time.Second {
		t.Errorf("the ingest's 504 took %v, deadline %v", took, timeout)
	}
	<-held
	if st := live.Status(); st.Refreshes != 0 || st.PendingRows != 100 {
		t.Fatalf("while the refresh is held: %d refreshes, %d pending rows; want 0 and 100", st.Refreshes, st.PendingRows)
	}
	releaseHold.Do(func() { close(hold) })
	ts.Close() // returns once the abandoned ingest's handler has
	st := live.Status()
	if st.Refreshes != 1 || st.PendingRows != 0 || st.TotalRows != before.TotalRows+100 || st.Generation != before.Generation+1 {
		t.Fatalf("after the refresh: %+v; want 1 refresh, 0 pending, %d rows at generation %d",
			st, before.TotalRows+100, before.Generation+1)
	}
}
