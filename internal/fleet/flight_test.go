package fleet

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// TestVersionedFollowerRefetchesANewerLiveAnswer: live and ?version=N reads
// of one version share flight keys, but a live leader's node may answer at a
// newer version than the one the read was keyed at (a background refresh the
// router never saw). A ?version=N read that joined that flight must not take
// the newer model's answer as v=N: it asks a node for v=N itself.
//
// The fake node answers ?version=1 at once with count 100, and a live read
// only when released, with count 200 at version 2.
func TestVersionedFollowerRefetchesANewerLiveAnswer(t *testing.T) {
	const estimator = "demo/maxent"
	liveArrived, release := make(chan struct{}), make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := server.DecodeBatch(r, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		count := 100.0
		if req.Version == 0 {
			close(liveArrived)
			<-release
			count = 200
			w.Header().Set(server.EstimatorGenerationHeader, "2")
		}
		answers := make([]query.BatchAnswer, len(req.Items))
		for i := range answers {
			answers[i].Count = count
		}
		_ = server.WriteBinaryAnswers(w, req.Estimator, answers)
	}))
	defer node.Close()
	rt, err := NewRouter([]NodeConfig{{URL: node.URL}}, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	rt.gens.observe(estimator, 1) // the router last saw v1: live reads key at 1

	frame, err := query.AppendBatch(nil, estimator, []query.BatchItem{{}})
	if err != nil {
		t.Fatal(err)
	}
	ask := func(path string) (float64, string) {
		resp, err := http.Post(router.URL+path, server.BinaryBatchContentType, bytes.NewReader(frame))
		if err != nil {
			t.Error(err)
			return math.NaN(), ""
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
			return math.NaN(), ""
		}
		_, answers, err := query.DecodeAnswers(resp.Body)
		if err != nil {
			t.Error(err)
			return math.NaN(), ""
		}
		return answers[0].Count, resp.Header.Get(server.EstimatorGenerationHeader)
	}

	liveDone := make(chan float64)
	go func() {
		count, _ := ask("/query/batch")
		liveDone <- count
	}()
	<-liveArrived // the live read leads the flight keyed at v1
	versionedDone := make(chan float64)
	go func() {
		count, _ := ask("/query/batch?version=1")
		versionedDone <- count
	}()
	// The versioned read misses the cache and then joins the flight; wait
	// for the miss, then give the join a moment before the leader leaves.
	for deadline := time.Now().Add(5 * time.Second); rt.cache.Stats().Misses < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the ?version=1 read never looked up the cache")
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(release)

	if got := <-liveDone; got != 200 {
		t.Errorf("live read: count %v, want the node's v2 answer 200", got)
	}
	if got := <-versionedDone; got != 100 {
		t.Errorf("?version=1 read: count %v, want the node's v1 answer 100", got)
	}
	// The v2 answer is cached under v2, where a ?version=2 read finds it.
	if got, gen := ask("/query/batch?version=2"); got != 200 || gen != "" {
		t.Errorf("?version=2 read: count %v, generation %q; want 200 and none", got, gen)
	}
	if got := rt.cache.Stats().Hits; got != 1 {
		t.Errorf("cache hits %d, want 1: the ?version=2 read", got)
	}
}
