package main

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/summary"
)

// The calls below happen inside the program, where the benchmark cannot wrap
// them; the traced run makes each again on the input its parent span saw and
// lays the measured time inside the parent.

// reissueEvals adds, under every estimator span, the polynomial evaluations
// the estimator made for that query.
func reissueEvals(t *tracer, sum *summary.Summary) {
	sys := sum.System()
	for _, sp := range t.snapshot() {
		in := t.input(sp.ID)
		switch sp.Name {
		case "summary.estimate_count":
			if in.item.Pred != nil {
				t.reissue(sp.ID, "polynomial.eval", 0, false, func() { sys.Eval(in.item.Pred) })
			}
		case "summary.estimate_groupby":
			preds := groupPredicates(in.item)
			t.reissue(sp.ID, "polynomial.eval", 0, false, func() {
				for _, p := range preds {
					sys.Eval(p)
				}
			})
		}
	}
}

// groupPredicates lists the masked evaluations a group-by makes: one per
// combination of values of the grouping attributes the predicate admits.
func groupPredicates(it query.BatchItem) []*query.Predicate {
	base := it.Pred
	if base == nil {
		base = query.NewPredicate(numAttrs)
	}
	preds := []*query.Predicate{base}
	for _, a := range it.GroupBy {
		var next []*query.Predicate
		for _, p := range preds {
			for v := 0; v < flightsDomains[a]; v++ {
				if p.Constraint(a).Matches(v) {
					next = append(next, p.Clone().WhereEq(a, v))
				}
			}
		}
		preds = next
	}
	return preds
}

// reissueCodecs adds, under every node handler span, the decoding of the
// request it read (laid at the span's start) and the encoding of the reply
// it wrote (laid at its end).
func reissueCodecs(t *tracer) {
	for _, sp := range t.snapshot() {
		if sp.Name != "server.handler" {
			continue
		}
		in := t.input(sp.ID)
		switch in.path {
		case "/query":
			var req server.QueryRequest
			var resp server.QueryResponse
			if json.Unmarshal(in.response, &resp) != nil {
				continue
			}
			t.reissue(sp.ID, "query.json_decode", 0, false, func() { _ = json.Unmarshal(in.request, &req) })
			t.reissue(sp.ID, "query.json_encode", 0, true, func() { _, _ = json.Marshal(resp) })
		case "/groupby":
			var req server.GroupByRequest
			var resp server.GroupByResponse
			if json.Unmarshal(in.response, &resp) != nil {
				continue
			}
			t.reissue(sp.ID, "query.json_decode", 0, false, func() { _ = json.Unmarshal(in.request, &req) })
			t.reissue(sp.ID, "query.json_encode", 0, true, func() { _, _ = json.Marshal(resp) })
		case "/query/batch":
			name, as, err := query.DecodeAnswers(bytes.NewReader(in.response))
			if err != nil {
				continue
			}
			t.reissue(sp.ID, "query.bin_decode", 0, false, func() { _, _, _, _ = query.DecodeBatchAt(bytes.NewReader(in.request)) })
			t.reissue(sp.ID, "query.bin_encode", 0, true, func() { _, _ = query.AppendAnswers(nil, name, as) })
		}
	}
}

// reissueRefresh lays under the latest ingest's handler span the stages a
// refresh runs inside the program, each timed on the same model and the same
// delta.
func reissueRefresh(t *tracer, base *summary.Summary, delta [][]int) {
	handler := -1
	for _, sp := range t.snapshot() {
		if sp.Name == "server.handler" && t.input(sp.ID).path == "/ingest/"+datasetName {
			handler = sp.ID
		}
	}
	if handler < 0 || base == nil {
		return
	}
	stages, _, err := stagedRefresh(base, deltaRelation(delta))
	if err != nil {
		return
	}
	var offset time.Duration
	for _, st := range stages {
		t.lay(handler, st.name, offset, st.d, false)
		offset += st.d
	}
}
