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
// and is already answered: the router has no cache to consult, so decoding
// and re-encoding the answer would only cost, or the decoder rejected it —
// one place, the node, decides what a malformed read looks like.
func (rt *Router) decodeRead(w http.ResponseWriter, r *http.Request,
	decode func(*http.Request, io.Reader) (server.ReadRequest, error)) (server.ReadRequest, []byte, bool) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return server.ReadRequest{}, nil, false
	}
	if rt.cache != nil {
		if req, err := decode(r, bytes.NewReader(body)); err == nil {
			return req, body, true
		}
	}
	rt.forward(w, r, body, -1)
	return server.ReadRequest{}, nil, false
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
		server.WriteError(w, herr.status, herr.msg)
		return
	}
	a := res.answers[0]
	if a.Error != "" {
		rt.forward(w, r, body, -1)
		return
	}
	res.writeHeaders(w, "application/json")
	server.WriteJSONAnswer(w, req.Estimator, req.Version, a, rt.opts.Now().Sub(start).Nanoseconds())
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
		server.WriteError(w, herr.status, herr.msg)
		return
	}
	res.writeHeaders(w, server.BinaryBatchContentType)
	if err := server.WriteBinaryAnswers(w, req.Estimator, res.answers); err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

// readResult is one routed read's answers, in item order, plus what the
// router knows about how they were produced.
type readResult struct {
	answers []query.BatchAnswer
	// hit: this request asked no node — every answer came from the router
	// cache.
	hit bool
	// gen is the live generation every answer shares, 0 when they share
	// none: versioned reads, or cached and fetched answers of different
	// generations.
	gen uint64
	// node names the node that answered the items this request fetched; ""
	// when it fetched nothing.
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

// read is the router's one read path, and the only code that touches the
// read cache. The request is keyed once, as a node keys it
// (server.AppendKeyPrefix): a versioned read at its version, a live read at
// the version genTable calls current — or at 0, which no entry carries, when
// none is. Hits are answered in place; the misses go to one node in one
// fetchMisses, and every answer that is not an item error is stored: a
// versioned read's under its version, a live read's under the version the
// node reported, when genTable.observe admits it. It runs only on a caching
// router: without a cache, decodeRead forwards the read as it came.
//
// The *routeError fails the whole read (no healthy replica, a node's own
// refusal of the estimator or version); a per-item failure rides in that
// answer's Error and is never cached.
func (rt *Router) read(ctx context.Context, req server.ReadRequest) (readResult, *routeError) {
	res := readResult{answers: make([]query.BatchAnswer, len(req.Items)), hit: true}
	live := req.Version == 0
	version := uint64(req.Version)
	if live {
		if v, ok := rt.gens.current(req.Estimator); ok {
			version = v
		}
		res.gen = version
	}
	// As on the node: one buffer for every key of the request.
	var keyBuf [256]byte
	key := server.AppendKeyPrefix(keyBuf[:0], req.Estimator, version)
	prefixLen := len(key)
	var misses []int
	for i, it := range req.Items {
		key = it.AppendIdentity(key[:prefixLen])
		if v, ok := rt.cache.Lookup(key); ok {
			res.answers[i] = v.(query.BatchAnswer)
			continue
		}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		return res, nil
	}

	items := make([]query.BatchItem, len(misses))
	for j, i := range misses {
		items[j] = req.Items[i]
	}
	answers, gen, node, herr := rt.fetchMisses(ctx, req.Estimator, req.Version, items)
	if herr != nil {
		return res, herr
	}
	res.hit, res.node = false, node
	if live && len(misses) == len(req.Items) {
		res.gen = gen
	} else if gen != res.gen {
		res.gen = 0 // cached and fetched answers name different versions
	}
	// A versioned answer is stored under its version: retained versions are
	// immutable. A live one under the version the node reported, if it
	// reported one and the table admits it (a lagging replica's answer is
	// relayed, not cached).
	at, store := version, true
	if live {
		at, store = gen, gen > 0 && rt.gens.observe(req.Estimator, gen)
		if gen > 0 && !store {
			rt.staleSkips.Add(1)
		}
	}
	key = server.AppendKeyPrefix(keyBuf[:0], req.Estimator, at)
	prefixLen = len(key)
	for j, i := range misses {
		res.answers[i] = answers[j]
		if a := answers[j]; store && a.Error == "" {
			// A hit is encoded from the stored answer, never replayed raw, so
			// it is bit-identical to what the node sent while honestly
			// flagged cached.
			a.Cached = true
			rt.cache.Put(string(req.Items[i].AppendIdentity(key[:prefixLen])), a)
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
		var e server.ErrorResponse
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
