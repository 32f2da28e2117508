package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/server"
)

// estimatorName is the registry and store key every workload serves.
const estimatorName = datasetName + "/maxent"

// call is one pre-marshalled request together with the logical queries it
// carries, so a timed segment replays bytes and the untimed pass can check
// every answer against the in-process estimator.
type call struct {
	path  string
	ctype string
	body  []byte
	items []query.BatchItem
}

// jsonCall is a single POST /query or /groupby.
func jsonCall(it query.BatchItem) (*call, error) {
	var (
		path string
		req  interface{}
	)
	if len(it.GroupBy) > 0 {
		path, req = "/groupby", server.GroupByRequest{Estimator: estimatorName, Predicate: it.Pred, GroupBy: it.GroupBy}
	} else {
		path, req = "/query", server.QueryRequest{Estimator: estimatorName, Predicate: it.Pred}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &call{path: path, ctype: "application/json", body: body, items: []query.BatchItem{it}}, nil
}

// batchCall is one binary POST /query/batch.
func batchCall(items []query.BatchItem) (*call, error) {
	body, err := query.AppendBatch(nil, estimatorName, items)
	if err != nil {
		return nil, err
	}
	return &call{path: "/query/batch", ctype: server.BinaryBatchContentType, body: body, items: items}, nil
}

// batchCalls packs items into binary batches of size n.
func batchCalls(items []query.BatchItem, n int) ([]*call, error) {
	var calls []*call
	for len(items) > 0 {
		k := n
		if k > len(items) {
			k = len(items)
		}
		c, err := batchCall(items[:k])
		if err != nil {
			return nil, err
		}
		calls = append(calls, c)
		items = items[k:]
	}
	return calls, nil
}

// jsonCalls is one JSON call per item.
func jsonCalls(items []query.BatchItem) ([]*call, error) {
	calls := make([]*call, len(items))
	for i, it := range items {
		c, err := jsonCall(it)
		if err != nil {
			return nil, err
		}
		calls[i] = c
	}
	return calls, nil
}

// reply is what came back for one call. body is valid until the client's
// next round trip.
type reply struct {
	status    int
	body      []byte
	routerHit bool
	rtt       time.Duration
}

// client is one closed-loop caller: it sends its next request only after the
// previous reply has been read to the end.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	t    *tracer
}

func newClient(base string, t *tracer) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		base: base,
		t:    t,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(cl *call) (reply, error) {
	id := c.t.begin("client.round_trip")
	defer c.t.end(id)
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+cl.path, bytes.NewReader(cl.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", cl.ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{
		status:    resp.StatusCode,
		body:      c.buf.Bytes(),
		routerHit: resp.Header.Get(fleet.RouterCacheHeader) == "hit",
		rtt:       rtt,
	}, nil
}

// answers decodes the reply to a call into one answer per item.
func answers(cl *call, r reply) ([]query.BatchAnswer, error) {
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", cl.path, r.status, bytes.TrimSpace(r.body))
	}
	switch cl.path {
	case "/query":
		var resp server.QueryResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return nil, err
		}
		return []query.BatchAnswer{{Count: resp.Count, Cached: resp.Cached}}, nil
	case "/groupby":
		var resp server.GroupByResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return nil, err
		}
		a := query.BatchAnswer{IsGroup: true, Cached: resp.Cached}
		for _, g := range resp.Groups {
			a.Groups = append(a.Groups, query.BatchGroup{Values: g.Values, Estimate: g.Estimate})
		}
		return []query.BatchAnswer{a}, nil
	default:
		_, as, err := query.DecodeAnswers(bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		if len(as) != len(cl.items) {
			return nil, fmt.Errorf("%s answered %d items for %d asked", cl.path, len(as), len(cl.items))
		}
		return as, nil
	}
}

// ask sends the calls in order and returns every answer.
func (c *client) ask(calls []*call) ([]query.BatchAnswer, error) {
	var out []query.BatchAnswer
	for _, cl := range calls {
		r, err := c.do(cl)
		if err != nil {
			return nil, err
		}
		as, err := answers(cl, r)
		if err != nil {
			return nil, err
		}
		out = append(out, as...)
	}
	return out, nil
}

// inProcess answers one query from an estimator in the shape a served answer
// has.
func inProcess(est core.Estimator, it query.BatchItem) query.BatchAnswer {
	if len(it.GroupBy) == 0 {
		v, err := est.EstimateCount(it.Pred)
		if err != nil {
			return query.BatchAnswer{Error: err.Error()}
		}
		return query.BatchAnswer{Count: v}
	}
	groups, err := est.EstimateGroupBy(it.GroupBy, it.Pred)
	if err != nil {
		return query.BatchAnswer{IsGroup: true, Error: err.Error()}
	}
	a := query.BatchAnswer{IsGroup: true}
	for _, g := range groups {
		a.Groups = append(a.Groups, query.BatchGroup{Values: g.Values, Estimate: g.Estimate})
	}
	return a
}

// sameBits reports whether a served answer is bit-identical to the one the
// in-process estimator gave: no error on either side, the same kind, and
// every count and group estimate equal as Float64bits.
func sameBits(want, got query.BatchAnswer) bool {
	if want.Error != "" || got.Error != "" || want.IsGroup != got.IsGroup || len(want.Groups) != len(got.Groups) {
		return false
	}
	if math.Float64bits(want.Count) != math.Float64bits(got.Count) {
		return false
	}
	for i, g := range want.Groups {
		h := got.Groups[i]
		if math.Float64bits(g.Estimate) != math.Float64bits(h.Estimate) || len(g.Values) != len(h.Values) {
			return false
		}
		for k, v := range g.Values {
			if h.Values[k] != v {
				return false
			}
		}
	}
	return true
}
