package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/server"
)

// TestRoutedWriteCutOffIsA502: a primary that declares a Content-Length,
// writes part of its ingest result and closes the connection may have
// applied the write, so the router cannot relay it as a 200. It answers 502
// naming the primary, fences the dataset above every version it has seen of
// it, as after a refresh to a version it cannot know, and notifies the
// replicas. Live reads of the dataset then reach a node and answer what the
// node answers until a node answers at a newer version; another dataset's
// cached answers still serve.
func TestRoutedWriteCutOffIsA502(t *testing.T) {
	reg := server.NewRegistry()
	for i, dataset := range []string{"demo", "other"} {
		rel := experiment.SyntheticRelation(500, rand.New(rand.NewSource(int64(i+1))))
		if _, err := server.BuildDataset(reg, dataset, rel, server.DatasetOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	node := server.New(reg, server.Options{CacheSize: -1}).Handler()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/ingest/") {
			node.ServeHTTP(w, r)
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprint(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 200\r\n\r\n"+
			`{"dataset":"demo","refreshed":true,"gen`)
		_ = buf.Flush()
	}))
	defer primary.Close()
	var notified atomic.Value
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SyncNotifyRequest
		if r.URL.Path == "/sync/notify" && json.NewDecoder(r.Body).Decode(&req) == nil {
			notified.Store(req.Dataset)
			return
		}
		node.ServeHTTP(w, r)
	}))
	defer replica.Close()
	rt, err := NewRouter([]NodeConfig{{Name: "primary", URL: primary.URL}, {Name: "replica", URL: replica.URL}},
		Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	// ask reads the dataset's total count at url and returns it with the
	// X-Router-Cache header.
	ask := func(url, dataset string) (float64, string) {
		t.Helper()
		resp, err := http.Post(url+"/query", "application/json", strings.NewReader(`{"estimator":"`+dataset+`/maxent"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr server.QueryResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&qr) != nil {
			t.Fatalf("%s read at %s: status %d", dataset, url, resp.StatusCode)
		}
		return qr.Count, resp.Header.Get(RouterCacheHeader)
	}
	for _, dataset := range []string{"demo", "other"} {
		for i, want := range []string{"", "hit"} {
			if _, tag := ask(router.URL, dataset); tag != want {
				t.Fatalf("warm-up read %d of %s: X-Router-Cache %q, want %q", i, dataset, tag, want)
			}
		}
	}

	resp, err := http.Post(router.URL+"/ingest/demo", "application/json", strings.NewReader(`{"rows":[[0,0,0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(raw), "primary primary") ||
		!strings.Contains(string(raw), "may have been applied") {
		t.Fatalf("cut-off ingest response relayed as %d: %s; want a 502 naming the primary", resp.StatusCode, raw)
	}
	direct, _ := ask(primary.URL, "demo")
	for i := 0; i < 2; i++ {
		if got, tag := ask(router.URL, "demo"); tag == "hit" || got != direct {
			t.Errorf("read %d of demo after the cut-off write: count %v, X-Router-Cache %q; want the node's %v, not a hit", i, got, tag, direct)
		}
	}
	if _, tag := ask(router.URL, "other"); tag != "hit" {
		t.Error("a cached answer of another dataset stopped serving")
	}
	if got := notified.Load(); got != "demo" {
		t.Errorf("replica notified of %v, want demo", got)
	}
}
