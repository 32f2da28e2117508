package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/server"
)

// The routed read path mirrors the node's (internal/server/read.go): every
// read endpoint — JSON POST /query, JSON POST /groupby, and the binary POST
// /query/batch — is an edge codec around Router.read. The node's own
// decoders turn the request into a server.ReadRequest, read answers it, and
// the handler encodes the answers back; a single query is a batch of one.

// handleQuery routes /query and handleGroupBy /groupby.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	rt.handleSingle(w, r, server.DecodeQuery)
}

func (rt *Router) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	rt.handleSingle(w, r, server.DecodeGroupBy)
}

// decodeRead buffers one read request and decodes it with the node's own
// decoder. ok is false when the request was instead forwarded as it came
// and is already answered: the decoder rejected it — one place, the node,
// decides what a malformed read looks like — or the router has no cache to
// consult, so decoding and re-encoding the answer would only cost.
func (rt *Router) decodeRead(w http.ResponseWriter, r *http.Request,
	decode func(*http.Request, io.Reader) (server.ReadRequest, error)) (server.ReadRequest, []byte, bool) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return server.ReadRequest{}, nil, false
	}
	req, err := decode(r, bytes.NewReader(body))
	if err != nil || rt.cache == nil {
		rt.forward(w, r, body, -1)
		return req, nil, false
	}
	return req, body, true
}

// handleSingle is the edge codec of the single-read endpoints. A one-item
// read whose answer is an in-band item error is forwarded as it came: a
// single endpoint reports that failure as an HTTP status (400 for a shape
// error, 422 for an estimator refusal) only the node can tell apart.
func (rt *Router) handleSingle(w http.ResponseWriter, r *http.Request,
	decode func(*http.Request, io.Reader) (server.ReadRequest, error)) {
	start := rt.opts.Now()
	req, body, ok := rt.decodeRead(w, r, decode)
	if !ok {
		return
	}
	res, herr := rt.read(r.Context(), req)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return
	}
	a := res.answers[0]
	if a.Error != "" {
		rt.forward(w, r, body, -1)
		return
	}
	res.writeHeaders(w, "application/json")
	latency := rt.opts.Now().Sub(start).Nanoseconds()
	var out interface{} = server.QueryResponse{Estimator: req.Estimator, Version: req.Version,
		Count: a.Count, Cached: a.Cached, LatencyNS: latency}
	if a.IsGroup {
		if a.Groups == nil {
			a.Groups = []query.GroupRow{} // "groups": [], never null — as a node answers
		}
		out = server.GroupByResponse{Estimator: req.Estimator, Version: req.Version,
			Groups: a.Groups, Cached: a.Cached, LatencyNS: latency}
	}
	_ = json.NewEncoder(w).Encode(out)
}

// handleBatch is the edge codec of the binary POST /query/batch. Per-item
// failures ride in-band under a 200, exactly as a node reports them.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, _, ok := rt.decodeRead(w, r, server.DecodeBatch)
	if !ok {
		return
	}
	res, herr := rt.read(r.Context(), req)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return
	}
	res.writeHeaders(w, server.BinaryBatchContentType)
	if err := server.WriteBinaryAnswers(w, req.Estimator, res.answers); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// readResult is one routed read's answers, in item order, plus what the
// router knows about how they were produced.
type readResult struct {
	answers []query.BatchAnswer
	// hit: this request asked no node — every answer came from the router
	// cache or from an identical in-flight read it joined.
	hit bool
	// gen is the live generation every answer shares, 0 when they share
	// none: versioned reads, or answers fetched under different
	// generations.
	gen uint64
	// node names the one node that answered every item this request
	// fetched; "" when it fetched nothing or two fetches were answered by
	// different nodes.
	node string
}

// writeHeaders is the one place a routed read's response headers are set.
func (res readResult) writeHeaders(w http.ResponseWriter, contentType string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	if res.hit {
		h.Set(RouterCacheHeader, "hit")
	}
	if res.gen > 0 {
		h.Set(server.EstimatorGenerationHeader, strconv.FormatUint(res.gen, 10))
	}
	if res.node != "" {
		h.Set(FleetNodeHeader, res.node)
	}
}

// routedMiss is one item the router cache could not answer: its position,
// its cache key, and the in-flight read it leads or follows.
type routedMiss struct {
	idx int
	key string
	fl  *flight
}

// read is the router's one read path, and the only code that touches the
// read cache. The request is keyed once, as a node keys it
// (server.AppendKeyPrefix): a versioned read at its version, a live read at
// the version genTable calls current — or at 0, which no entry carries, when
// none is. A miss joins the in-flight read of its key, so concurrent
// identical misses — single reads, batch items, or one of each — cost the
// fleet one node request; the items this request leads are fetched from the
// fleet in one fetchMisses, and a live answer is stored under the version
// the node reported when genTable.admit admits it; then it collects the
// answers of the flights it followed — each only if it names the version
// the read asks for — fetching for itself whatever a leader could not
// vouch for. Leaders always fetch before they wait, so two
// requests following each other's items cannot deadlock. It runs only on a
// caching router: without a cache, decodeRead forwards the read as it came.
//
// The *routeError fails the whole read (no healthy replica, a node's own
// refusal of the estimator or version); a per-item failure rides in that
// answer's Error and is never cached.
func (rt *Router) read(ctx context.Context, req server.ReadRequest) (readResult, *routeError) {
	res := readResult{answers: make([]query.BatchAnswer, len(req.Items)), hit: true}
	// versions[i] is the live version answer i names.
	versions := make([]uint64, len(req.Items))
	version := uint64(req.Version)
	if version == 0 {
		if v, ok := rt.gens.current(req.Estimator); ok {
			version = v
		}
	}
	var lead, follow []routedMiss
	// As on the node: one buffer for every key of the request, and a string
	// only for a miss, which joins a flight and may store under it.
	var keyBuf [256]byte
	key := server.AppendKeyPrefix(keyBuf[:0], req.Estimator, version)
	prefixLen := len(key)
	for i, it := range req.Items {
		key = it.AppendIdentity(key[:prefixLen])
		if v, ok := rt.cache.Lookup(key); ok {
			res.answers[i], versions[i] = v.(query.BatchAnswer), version
			continue
		}
		m := routedMiss{idx: i, key: string(key)}
		var leader bool
		if m.fl, leader = rt.flights.join(m.key); leader {
			lead = append(lead, m)
		} else {
			follow = append(follow, m)
		}
	}

	// A live read keyed before a newer version was observed may have missed
	// an answer that a flight stored under that version before leaving; its
	// lead items look once more, at the version current now.
	if len(lead) > 0 && req.Version == 0 {
		if cur, ok := rt.gens.current(req.Estimator); ok && cur != version {
			key = server.AppendKeyPrefix(keyBuf[:0], req.Estimator, cur)
			curLen, kept := len(key), lead[:0]
			for _, m := range lead {
				key = append(key[:curLen], m.key[prefixLen:]...)
				if v, ok := rt.cache.Lookup(key); ok {
					res.answers[m.idx], versions[m.idx] = v.(query.BatchAnswer), cur
					rt.flights.leave(m.key, m.fl, res.answers[m.idx], cur, true)
					continue
				}
				kept = append(kept, m)
			}
			lead = kept
		}
	}

	// fetch asks the fleet for the given misses and files the answers.
	fetch := func(misses []routedMiss) *routeError {
		items := make([]query.BatchItem, len(misses))
		for j, m := range misses {
			items[j] = req.Items[m.idx]
		}
		answers, gen, node, herr := rt.fetchMisses(ctx, req.Estimator, req.Version, items)
		if herr != nil {
			return herr
		}
		for j, m := range misses {
			res.answers[m.idx], versions[m.idx] = answers[j], gen
		}
		if !res.hit && node != res.node {
			node = "" // an earlier fetch of this request was answered elsewhere
		}
		res.node, res.hit = node, false
		return nil
	}

	if len(lead) > 0 {
		// Followers must be released even if the fetch fails or panics.
		defer func() {
			for _, m := range lead {
				if m.fl != nil {
					rt.flights.leave(m.key, m.fl, query.BatchAnswer{}, 0, false)
				}
			}
		}()
		if herr := fetch(lead); herr != nil {
			return res, herr
		}
		for j, m := range lead {
			// A hit is encoded from the stored answer, never replayed raw, so
			// it is bit-identical to what the node sent while honestly
			// flagged cached. Every answer is stored before its flight is
			// left, so a read arriving after the last follower woke finds it.
			a, v := res.answers[m.idx], versions[m.idx]
			a.Cached = true
			stored := false
			switch {
			case a.Error != "":
			case req.Version > 0:
				v, stored = version, true // retained versions are immutable
				rt.cache.Put(m.key, a)
			case v == 0:
				// No node vouched for a live version.
			default:
				storeKey := m.key
				if v != version {
					storeKey = string(append(server.AppendKeyPrefix(nil, req.Estimator, v), m.key[prefixLen:]...))
				}
				if stored = rt.gens.admit(req.Estimator, v, func() { rt.cache.Put(storeKey, a) }); !stored {
					rt.staleSkips.Add(1)
				}
			}
			rt.flights.leave(m.key, m.fl, a, v, stored)
			lead[j].fl = nil
		}
	}

	var retry []routedMiss
	for _, m := range follow {
		select {
		case <-m.fl.done:
		case <-ctx.Done():
			// The CLIENT went away (disconnect or its own timeout), not the
			// upstream: do not misreport a gateway error.
			return res, &routeError{status: http.StatusRequestTimeout, msg: "client gave up waiting for an identical in-flight read"}
		}
		// A follower takes the leader's answer only if it names the version
		// this read asks for: a versioned read its N, a live read the
		// version current now, as a hit is keyed. A flight is keyed at the
		// version its leader looked up, but a live leader's node may have
		// answered a newer one, and a routed write may have fenced the
		// estimator while the follower waited.
		want, live := version, true
		if req.Version == 0 {
			want, live = rt.gens.current(req.Estimator)
		}
		if m.fl.ok && live && m.fl.version == want {
			rt.collapsed.Add(1)
			res.answers[m.idx], versions[m.idx] = m.fl.answer, m.fl.version
			continue
		}
		// The leader's answer was not cacheable (error, node behind), names
		// another version, or was fenced while we waited; this read speaks
		// to a node itself.
		retry = append(retry, m)
	}
	if len(retry) > 0 {
		if herr := fetch(retry); herr != nil {
			return res, herr
		}
	}

	if req.Version == 0 {
		res.gen = versions[0]
		for _, v := range versions[1:] {
			if v != res.gen {
				res.gen = 0
			}
		}
	}
	return res, nil
}

// fetchMisses is how a miss reaches a node — the only code that builds a
// read sub-request. It sends the items to one node as one binary sub-frame
// and returns the answers in item order, the generation that node vouched
// for (0 when it vouched for none: a versioned read), and the node's name.
//
// A node error keeps its own status so a single-node refusal (unknown
// estimator, oversized batch) reaches the client as the node sent it.
func (rt *Router) fetchMisses(ctx context.Context, estimator string, version int, items []query.BatchItem) ([]query.BatchAnswer, uint64, string, *routeError) {
	frame, err := query.AppendBatchAt(nil, estimator, version, items)
	if err != nil {
		// The decoders admit only what the binary wire carries, so this is a
		// decoder and encoder drifting apart: still the request's fault as
		// far as the client can tell.
		return nil, 0, "", &routeError{status: http.StatusBadRequest, msg: err.Error()}
	}
	header := http.Header{"Content-Type": []string{server.BinaryBatchContentType}}
	resp, n, herr := rt.roundTrip(ctx, http.MethodPost, "/query/batch", header, frame, -1)
	if herr != nil {
		return nil, 0, "", herr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		msg := strings.TrimSpace(string(b))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, 0, "", &routeError{status: resp.StatusCode, msg: msg}
	}
	// Absent on a versioned read: the generation stays 0.
	var gen uint64
	if g, err := strconv.ParseUint(resp.Header.Get(server.EstimatorGenerationHeader), 10, 64); err == nil {
		gen = g
	}
	_, answers, err := query.DecodeAnswers(resp.Body)
	if err == nil && len(answers) != len(items) {
		err = fmt.Errorf("%d answers for %d items", len(answers), len(items))
	}
	if err != nil {
		return nil, 0, "", &routeError{status: http.StatusBadGateway, msg: fmt.Sprintf("%s: %v", n.name, err)}
	}
	return answers, gen, n.name, nil
}
