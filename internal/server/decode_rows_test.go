package server_test

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/experiment"
	"repro/internal/raceflag"
	"repro/internal/schema"
	"repro/internal/server"
)

// flightsIngestSchema has the repository benchmark's flights shape: five
// attributes of its domain sizes.
func flightsIngestSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustBinned("fl_date", 0, 307, 307),
		schema.MustBinned("origin", 0, 54, 54),
		schema.MustBinned("dest", 0, 54, 54),
		schema.MustBinned("fl_time", 0, 62, 62),
		schema.MustBinned("distance", 0, 81, 81),
	)
}

// flightsIngestBody marshals n rows drawn uniformly over
// flightsIngestSchema's domains the way every client sends a batch:
// json.Marshal of an IngestRequest.
func flightsIngestBody(tb testing.TB, n int) []byte {
	tb.Helper()
	sch := flightsIngestSchema()
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, sch.NumAttrs())
		for a := range rows[i] {
			rows[i][a] = rng.Intn(sch.Attr(a).Size())
		}
	}
	body, err := json.Marshal(server.IngestRequest{Rows: rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// ingestBodySeeds are bodies at the edges of the one-pass decoder's shape,
// written for the four-attribute synthetic schema.
var ingestBodySeeds = []string{
	`{"rows":[[1,2,0,3],[0,5,2,7]]}`,
	"{\n\t\"rows\": [\n\t\t[1, 2, 0, 3],\n\t\t[0, 5, 2, 7]\n\t]\n}",
	`{"rows":[[1,2,0,3]],"source":"sensor-7"}`,
	`{"Rows":[[1,2,0,3]]}`,
	"{\"rows\":[[1,2,0,3]]}\n",
	`{"rows":[[1,2,0,3]]}{"rows":[[1,1,1,1]]}`,
	`{"rows":[[1,2,0,3]]} x`,
	`{"rows":[[1,2,0,3]],"rows":[[0,0,0,0]]}`,
	`{"rows":[[1,2,0,3]}`,
	`{"rows":[[1,2,0,3}]}`,
	`{"rows":[[1,2,0,3],]}`,
	`{"rows":[,[1,2,0,3]]}`,
	`{"rows":[[1,2,,3]]}`,
	`{"rows":[[1,2,0,3][0,5,2,7]]}`,
	`{"rows":[[1 2,0,3]]}`,
	`{"rows":[[1,2,0,3]`,
	`{"rows":[[1,"2",0,3]]}`,
	`{"rows":[[1,1.0,0,3]]}`,
	`{"rows":[[1,1e2,0,3]]}`,
	`{"rows":[[1,01,0,3]]}`,
	`{"rows":[[1,-0,0,3]]}`,
	`{"rows":[[1,-1,0,3]]}`,
	`{"rows":[[1,-,0,3]]}`,
	`{"rows":[[999999999999999999,0,0,3]]}`,
	`{"rows":[[1000000000000000000,0,0,3]]}`,
	`{"rows":[[9223372036854775807,-9223372036854775808,0,3]]}`,
	`{"rows":[[9223372036854775808,0,0,3]]}`,
	`{"rows":[[-9223372036854775809,0,0,3]]}`,
	`{"rows":[[1,[2],0,3]]}`,
	`{"rows":[[[[[[[[[[[[[[[[`,
	`{"rows":[[0],[1],[2]]}`,
	`{"rows":[[1,2,0,3],null]}`,
	`{"rows":[[1,2,0]]}`,
	`{"rows":[[1,2,0,3,4]]}`,
	`{"rows":[[]]}`,
	`{"rows":null}`,
	`{"rows":[]}`,
	`{}`,
	`{" rows":[[1,2,0,3]]}`,
	`{"rows":[[1,2,0,3]]}`,
	`[[1,2,0,3]]`,
	`null`,
	``,
	`{"rows":[[1,2,0,3]]}` + "\x00",
}

// checkAgainstReference holds DecodeJSONRows to encoding/json on one body:
// it accepts exactly when json.Unmarshal into an IngestRequest accepts and
// every row has the schema's arity, and then returns the same rows, each
// with no capacity past its length.
func checkAgainstReference(t *testing.T, sch *schema.Schema, body []byte) {
	t.Helper()
	var req server.IngestRequest
	want := json.Unmarshal(body, &req) == nil
	for _, row := range req.Rows {
		want = want && len(row) == sch.NumAttrs()
	}
	rows, err := server.DecodeJSONRows(sch, body)
	if got := err == nil; got != want {
		t.Fatalf("%d attributes, body %q: DecodeJSONRows accepted=%v (err %v), encoding/json accepted=%v",
			sch.NumAttrs(), body, got, err, want)
	}
	if !want {
		return
	}
	if len(rows) != len(req.Rows) {
		t.Fatalf("body %q: %d rows, encoding/json gives %d", body, len(rows), len(req.Rows))
	}
	for i, row := range rows {
		if !slices.Equal(row, req.Rows[i]) {
			t.Fatalf("body %q: row %d is %v, encoding/json gives %v", body, i, row, req.Rows[i])
		}
		if cap(row) != len(row) {
			t.Fatalf("body %q: row %d has cap %d past its length %d", body, i, cap(row), len(row))
		}
	}
}

// FuzzDecodeJSONRows checks the one-pass decoder against encoding/json under
// the four-attribute synthetic schema and the five-attribute flights shape.
func FuzzDecodeJSONRows(f *testing.F) {
	for _, s := range ingestBodySeeds {
		f.Add([]byte(s))
	}
	f.Add(flightsIngestBody(f, 50))
	schemas := []*schema.Schema{experiment.SyntheticSchema(), flightsIngestSchema()}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, sch := range schemas {
			checkAgainstReference(t, sch, body)
		}
	})
}

// TestDecodeJSONRowsFlightsAllocations bounds what a 5,000-row batch costs
// to decode: the slab, the row headers and a constant, never a slice per
// row. encoding/json spent 20,035 allocations on it.
func TestDecodeJSONRowsFlightsAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	sch, body := flightsIngestSchema(), flightsIngestBody(t, 5000)
	checkAgainstReference(t, sch, body)
	const budget = 64
	got := testing.AllocsPerRun(20, func() {
		if _, err := server.DecodeJSONRows(sch, body); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("decoding 5,000 rows allocated %.0f times, budget %d", got, budget)
	}
}

// BenchmarkDecodeJSONRows decodes one batch of the repository benchmark's
// ingest-refresh workload: 5,000 flights-shaped rows.
func BenchmarkDecodeJSONRows(b *testing.B) {
	b.Run("flights", func(b *testing.B) {
		sch, body := flightsIngestSchema(), flightsIngestBody(b, 5000)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := server.DecodeJSONRows(sch, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
