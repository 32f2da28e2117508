package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// TestRoutedWriteCutOffIsA502: a primary that declares a Content-Length,
// writes part of its ingest result and closes the connection may have
// applied the write, so the router cannot relay it as a 200. It answers 502
// naming the primary, drops the dataset's cached answers, and notifies the
// replicas, as after a refresh at an unknown version.
func TestRoutedWriteCutOffIsA502(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
		}
	}))
	defer replica.Close()
	rt, err := NewRouter([]NodeConfig{{Name: "primary", URL: primary.URL}, {Name: "replica", URL: replica.URL}},
		Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	demo := string(server.AppendKeyPrefix(nil, "demo/maxent", 3))
	other := string(server.AppendKeyPrefix(nil, "other/maxent", 3))
	rt.cache.Put(demo, query.BatchAnswer{Count: 1})
	rt.cache.Put(other, query.BatchAnswer{Count: 2})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

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
	if _, ok := rt.cache.Get(demo); ok {
		t.Error("a cached answer of the written dataset survived")
	}
	if _, ok := rt.cache.Get(other); !ok {
		t.Error("a cached answer of another dataset was dropped")
	}
	if got := notified.Load(); got != "demo" {
		t.Errorf("replica notified of %v, want demo", got)
	}
}
