package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"

	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// exampleServer builds a store-backed live dataset with two retained
// snapshot versions of demo/maxent (v1 from the build, v2 from one
// ingest+refresh round) and serves it over httptest.
func exampleServer() (*httptest.Server, *store.Store, func()) {
	dir, err := os.MkdirTemp("", "versioning-example")
	if err != nil {
		panic(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	reg := server.NewRegistry()
	mut := relation.NewMutable(experiment.SyntheticRelation(2000, rand.New(rand.NewSource(1))))
	live, _, err := server.BuildLiveDataset(reg, "demo", mut, server.LiveOptions{
		Dataset: server.DatasetOptions{
			Summary: summary.Options{Solver: solver.Options{MaxSweeps: 200}},
			Store:   st,
		},
	})
	if err != nil {
		panic(err)
	}
	if _, err := live.Ingest([][]int{{3, 5, 0, 2}, {3, 5, 1, 4}}); err != nil {
		panic(err)
	}
	if _, err := live.Refresh(); err != nil {
		panic(err)
	}
	srv := server.New(reg, server.Options{Store: st})
	srv.AttachLive(live)
	ts := httptest.NewServer(srv.Handler())
	return ts, st, func() {
		ts.Close()
		os.RemoveAll(dir)
	}
}

// ExampleServer_timeTravel queries a retained snapshot version: the same
// /query endpoint, with ?version=N selecting which version of history
// answers. The response echoes the version it was served from (0 = live).
func ExampleServer_timeTravel() {
	ts, _, cleanup := exampleServer()
	defer cleanup()

	pred := query.NewPredicate(4)
	pred.WhereEq(0, 3) // region = LATAM
	body, _ := json.Marshal(server.QueryRequest{Estimator: "demo/maxent", Predicate: pred})

	for _, version := range []string{"1", "2", ""} {
		u := ts.URL + "/query"
		if version != "" {
			u += "?version=" + version
		}
		resp, err := http.Post(u, "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			panic(err)
		}
		resp.Body.Close()
		fmt.Printf("requested %q -> answered from version %d (status %d)\n", version, qr.Version, resp.StatusCode)
	}
	// Output:
	// requested "1" -> answered from version 1 (status 200)
	// requested "2" -> answered from version 2 (status 200)
	// requested "" -> answered from version 0 (status 200)
}
