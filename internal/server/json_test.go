package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/raceflag"
	"repro/internal/server"
)

// canonicalReadBodies are JSON single reads as every client writes them,
// json.Marshal of the request types, over the benchmark's five flights
// attributes: each constraint kind, a group-by, a version and no predicate.
func canonicalReadBodies(tb testing.TB) [][]byte {
	tb.Helper()
	reqs := []interface{}{
		server.QueryRequest{Estimator: "flights/maxent", Predicate: query.NewPredicate(5).WhereEq(1, 7)},
		server.QueryRequest{Estimator: "flights/maxent", Predicate: query.NewPredicate(5).
			WhereRange(0, 12, 40).WhereEq(2, 3).WhereIn(4, 9, 1, 30)},
		server.QueryRequest{Estimator: "demo/maxent", Version: 2, Predicate: query.NewPredicate(4).WhereRange(3, 2, 5)},
		server.QueryRequest{Estimator: "demo/maxent"},
		server.GroupByRequest{Estimator: "flights/maxent", GroupBy: []int{1}, Predicate: query.NewPredicate(5).
			WhereEq(0, 100).WhereIn(3, 5, 6)},
		server.GroupByRequest{Estimator: "flights/maxent", GroupBy: []int{2, 1}, Version: 7},
	}
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

// readMutants are bodies just outside the one-pass decoder's shape, made
// from a canonical one: a key in other case, a duplicated key, a null, a
// negative value, an escape or a character outside printable ASCII, an
// unsorted where list, trailing bytes. The encoding/json path takes each.
func readMutants(body []byte) [][]byte {
	s := string(body)
	out := []string{
		strings.Replace(s, `"estimator"`, `"Estimator"`, 1),
		strings.Replace(s, `"kind"`, `"KIND"`, 1),
		strings.Replace(s, `{"estimator":`, `{"estimator":"other/maxent","estimator":`, 1),
		strings.Replace(s, `"num_attrs":`, `"num_attrs":9,"num_attrs":`, 1),
		strings.Replace(s, `{"estimator":`, `{"version":null,"estimator":`, 1),
		strings.Replace(s, `"predicate":{`, `"predicate":null,"x":{`, 1),
		strings.Replace(s, `"value":`, `"value":-`, 1),
		strings.Replace(s, `"lo":`, `"lo":-`, 1),
		strings.Replace(s, `"group_by":[`, `"group_by":[-`, 1),
		strings.Replace(s, `/maxent"`, `\/maxent"`, 1),
		strings.Replace(s, `/maxent"`, "/maxent\u2028\"", 1),
		strings.Replace(s, `"where":[`, `"where":[{"attr":4,"kind":"eq","value":0},`, 1),
		s + " x",
		s + `{}`,
		s + "\n",
	}
	bodies := make([][]byte, 0, len(out))
	for _, m := range out {
		if m != s {
			bodies = append(bodies, []byte(m))
		}
	}
	return bodies
}

// referenceDecode decodes a JSON single read the way the decoders did
// before the one-pass path: encoding/json over the body, then the checks
// that follow it.
func referenceDecode(groupBy bool, body []byte) (server.ReadRequest, error) {
	var (
		read server.ReadRequest
		err  error
	)
	dec := json.NewDecoder(bytes.NewReader(body))
	if groupBy {
		var req server.GroupByRequest
		err = dec.Decode(&req)
		read = server.ReadRequest{Estimator: req.Estimator, Version: req.Version,
			Items: []query.BatchItem{{Pred: req.Predicate, GroupBy: req.GroupBy}}}
	} else {
		var req server.QueryRequest
		err = dec.Decode(&req)
		read = server.ReadRequest{Estimator: req.Estimator, Version: req.Version,
			Items: []query.BatchItem{{Pred: req.Predicate}}}
	}
	if err != nil {
		return server.ReadRequest{}, fmt.Errorf("malformed request body: %v", err)
	}
	if groupBy {
		if len(read.Items[0].GroupBy) == 0 {
			return server.ReadRequest{}, fmt.Errorf("group_by needs 1..4 attributes, got 0")
		}
		if err := query.CheckGroupBy(read.Items[0].GroupBy); err != nil {
			return server.ReadRequest{}, err
		}
	}
	read.Version = max(read.Version, 0)
	return read, nil
}

// checkDecodeRead holds DecodeQuery and DecodeGroupBy to referenceDecode on
// one body: the same request, or the same error text.
func checkDecodeRead(t *testing.T, body []byte) {
	t.Helper()
	for _, groupBy := range []bool{false, true} {
		r := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/query"}}
		decode := server.DecodeQuery
		if groupBy {
			r.URL.Path, decode = "/groupby", server.DecodeGroupBy
		}
		got, gotErr := decode(r, bytes.NewReader(body))
		want, wantErr := referenceDecode(groupBy, body)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s %q: error %v, want %v", r.URL.Path, body, gotErr, wantErr)
			}
			continue
		}
		g, w := got.Items[0], want.Items[0]
		if got.Estimator != want.Estimator || got.Version != want.Version || len(got.Items) != 1 ||
			!slices.Equal(g.GroupBy, w.GroupBy) || (g.Pred == nil) != (w.Pred == nil) ||
			(g.Pred != nil && !g.Pred.Equal(w.Pred)) {
			t.Fatalf("%s %q: decoded %+v (%v), want %+v (%v)", r.URL.Path, body, got, g.Pred, want, w.Pred)
		}
	}
}

// FuzzDecodeRead: whatever the body, the JSON read decoders return the
// request the encoding/json path alone returns, or its error text.
func FuzzDecodeRead(f *testing.F) {
	for _, b := range canonicalReadBodies(f) {
		f.Add(b)
		for _, m := range readMutants(b) {
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeRead(t, body) })
}

// TestCanonicalReadsTakeTheOnePass: the bodies clients send take the
// one-pass decoder, and the mutants leave it for encoding/json, so
// FuzzDecodeRead compares two decoders, not one with itself.
func TestCanonicalReadsTakeTheOnePass(t *testing.T) {
	for _, b := range canonicalReadBodies(t) {
		groupBy := bytes.Contains(b, []byte(`"group_by"`))
		if _, ok, err := query.DecodeJSONRead(b, groupBy); !ok || err != nil {
			t.Errorf("%s: one pass took it %v, error %v", b, ok, err)
		}
		for _, m := range readMutants(b) {
			if _, ok, _ := query.DecodeJSONRead(m, groupBy); ok != bytes.Equal(m, append(b, '\n')) {
				t.Errorf("%s: one pass took it %v", m, ok)
			}
		}
	}
}

// TestWriteJSONAnswerMatchesEncoder holds the appended single-read answers
// to json.Encoder's bytes for the same response: counts at the edges of
// encoding/json's float forms, a 307-group answer (the benchmark's widest
// one-attribute group-by), versions, and estimator names json.Encoder
// escapes.
func TestWriteJSONAnswerMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	groups := make([]query.GroupRow, 307)
	for i := range groups {
		groups[i] = query.GroupRow{Values: []int{i}, Estimate: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-12))}
	}
	groups[0].Estimate, groups[1].Estimate = 0, 5e-324
	counts := []float64{0, 1, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, 5e-324, 2.2250738585072014e-308,
		2543.555686595755, 0.1, 123456789, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	type answer struct {
		estimator string
		version   int
		a         query.BatchAnswer
	}
	var answers []answer
	for i, c := range counts {
		answers = append(answers, answer{"demo/maxent", i % 3, query.BatchAnswer{Count: c, Cached: i%2 == 0}})
	}
	for _, name := range []string{"flights/maxent", "a<b/maxent", "a&b/maxent", "a\u2028b/maxent", `a"b`, "\u00e9/maxent"} {
		answers = append(answers,
			answer{name, 0, query.BatchAnswer{Count: 17.25}},
			answer{name, 4, query.BatchAnswer{IsGroup: true, Groups: groups, Cached: true}})
	}
	answers = append(answers,
		answer{"flights/maxent", 0, query.BatchAnswer{IsGroup: true, Groups: []query.GroupRow{}}},
		answer{"flights/maxent", 0, query.BatchAnswer{IsGroup: true, Groups: []query.GroupRow{{Values: []int{3, 0, 12}, Estimate: math.Inf(-1)}}}})
	for i, a := range answers {
		const latency = 48213
		rec := httptest.NewRecorder()
		server.WriteJSONAnswer(rec, a.estimator, a.version, a.a, latency)
		var want bytes.Buffer
		var resp interface{} = server.QueryResponse{Estimator: a.estimator, Version: a.version,
			Count: a.a.Count, Cached: a.a.Cached, LatencyNS: latency}
		if a.a.IsGroup {
			resp = server.GroupByResponse{Estimator: a.estimator, Version: a.version,
				Groups: a.a.Groups, Cached: a.a.Cached, LatencyNS: latency}
		}
		_ = json.NewEncoder(&want).Encode(resp)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("answer %d: wrote\n%s\nwant\n%s", i, rec.Body.Bytes(), want.Bytes())
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("answer %d: status %d, Content-Type %q", i, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
	// A group-by without groups answers "groups": [], never null, on the
	// appending path and on json.Encoder's.
	for _, name := range []string{"flights/maxent", "a<b/maxent"} {
		rec := httptest.NewRecorder()
		server.WriteJSONAnswer(rec, name, 0, query.BatchAnswer{IsGroup: true}, 1)
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"groups":[],`)) {
			t.Errorf("%s: a group-by without groups wrote %s", name, rec.Body.Bytes())
		}
	}
}

// TestTimedOutReadAnswersAtItsDeadline drives the executor with one slot
// and an estimator that blocks until released. The first read's 504 is
// written by its deadline, while the evaluation still runs, and closes the
// connection; the slot stays held, so a second read gets 503; once the
// evaluation returns, a read on a new connection is answered.
func TestTimedOutReadAnswersAtItsDeadline(t *testing.T) {
	reg := server.NewRegistry()
	blk := &blockingEstimator{release: make(chan struct{})}
	if err := reg.Register("slow/blocking", blk, experiment.SyntheticSchema()); err != nil {
		t.Fatal(err)
	}
	const timeout = 80 * time.Millisecond
	ts := httptest.NewServer(server.New(reg, server.Options{Timeout: timeout, MaxConcurrent: 1, CacheSize: -1}).Handler())
	defer ts.Close()
	released := false
	release := func() {
		if !released {
			released = true
			close(blk.release)
		}
	}
	defer release()

	// read posts one count on a client of its own, so on a connection of
	// its own; the client's timeout turns a 504 that waits for the
	// evaluation into a failure instead of a hang.
	read := func() (*http.Response, string, time.Duration) {
		t.Helper()
		c := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
		defer c.CloseIdleConnections()
		start := time.Now()
		resp, err := c.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"estimator":"slow/blocking"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body), time.Since(start)
	}

	resp, body, took := read()
	if resp.StatusCode != http.StatusGatewayTimeout || body != "{\"error\":\"query timed out\"}\n" {
		t.Fatalf("first read: %d %q; want the 504", resp.StatusCode, body)
	}
	if !resp.Close {
		t.Error("first read's 504 keeps its connection open: no Connection: close")
	}
	if took > timeout+time.Second {
		t.Errorf("first read's 504 took %v, deadline %v", took, timeout)
	}
	if resp, body, _ := read(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second read while the first holds the slot: %d %q; want 503", resp.StatusCode, body)
	}
	release()
	var qr server.QueryResponse
	if resp, body, _ := read(); resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &qr) != nil || qr.Count != 1 {
		t.Fatalf("read after the evaluation returned: %d %q; want 200 with count 1", resp.StatusCode, body)
	}
}

// TestJSONQueryAllocationBudget guards what one canonical JSON POST /query
// costs the handler on a node with its cache off, as the explore-uncached
// workload asks it: one-pass decode, masked evaluation, appended answer, no
// goroutine handoff. It measured 26 allocations; the encoding/json decode,
// the reflected encode and the goroutine per read took 50.
func TestJSONQueryAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{}); err != nil {
		t.Fatal(err)
	}
	handler := server.New(reg, server.Options{CacheSize: -1}).Handler()
	body, err := json.Marshal(server.QueryRequest{Estimator: "demo/maxent",
		Predicate: query.NewPredicate(4).WhereEq(0, 2).WhereRange(3, 2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := &http.Request{
		Method: http.MethodPost, URL: &url.URL{Path: "/query"}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}}, Body: io.NopCloser(rd),
		ContentLength: int64(len(body)), Host: "node.bench", RemoteAddr: "192.0.2.1:1234",
	}
	w := &sinkWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		w.code, w.n = 0, 0
		handler.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("query wrote status %d, %d bytes", w.code, w.n)
		}
	}
	serve()
	const budget = 32
	if got := testing.AllocsPerRun(200, serve); got > budget {
		t.Errorf("a canonical JSON /query allocated %.0f times, budget %d", got, budget)
	}
}
