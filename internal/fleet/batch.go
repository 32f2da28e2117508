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
	"sync"

	"repro/internal/query"
	"repro/internal/server"
)

// handleBatch proxies POST /query/batch on both wires, decoding the request
// and choosing the response wire with the node's own codec functions. A
// decoded batch is answered item-wise — from the router cache where it can,
// from the fleet otherwise. Forwarded whole to one healthy node (with
// retry) are the batches the router has nothing to add to: anything the
// node's decoder rejects, so the node's own error surface answers (one
// place decides what a malformed batch looks like), and, with the cache
// off, a batch too small to fan out.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	read, err := server.DecodeBatch(r, bytes.NewReader(body))
	if err != nil || len(read.Items) > query.MaxBatchItems ||
		(rt.cache == nil && rt.fanoutWays(len(read.Items)) == 1) {
		rt.forward(w, r, body, -1)
		return
	}
	rt.serveBatch(w, r, read)
}

// fanoutWays is how many nodes a fetch of n items is dealt across: every
// healthy node at FanoutBatch items and above, one otherwise.
func (rt *Router) fanoutWays(n int) int {
	if ways := rt.healthyCount(); rt.opts.FanoutBatch >= 0 && n >= rt.opts.FanoutBatch && ways >= 2 {
		return ways
	}
	return 1
}

// serveBatch answers a decoded batch from the router cache where it can
// and fetches only the missing items from the fleet: an all-hit batch
// never leaves the router, a partial hit ships a sub-batch holding just
// the misses, and the fetched answers are reassembled positionally and
// cached under the same generation fencing as single reads. With the cache
// off every item is a miss and nothing is stored. Per-item errors (arity
// mismatch, estimator refusal) ride along uncached, exactly as a node
// reports them.
func (rt *Router) serveBatch(w http.ResponseWriter, r *http.Request, read server.ReadRequest) {
	estimator, version, items := read.Estimator, read.Version, read.Items
	binaryResp := server.WantBinaryAnswers(r, read.Binary)
	if rt.cache == nil {
		answers, _, herr := rt.fetchMisses(r.Context(), estimator, version, items)
		if herr != nil {
			writeError(w, herr.status, herr.msg)
			return
		}
		writeBatchAnswers(w, estimator, version, answers, binaryResp)
		return
	}
	answers := make([]query.BatchAnswer, len(items))
	keys := make([]string, len(items))
	var missIdx []int
	genCur, genOK := rt.gens.current(estimator)
	for i, it := range items {
		keys[i] = routerQueryKey(estimator, version, it)
		if v, ok := rt.cache.Get(keys[i]); ok {
			e := v.(cachedRead)
			if version > 0 || (genOK && e.gen == genCur) {
				answers[i] = e.toBatchAnswer()
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		w.Header().Set(RouterCacheHeader, "hit")
	} else {
		got, gens, herr := rt.fetchMisses(r.Context(), estimator, version, query.Pick(items, missIdx))
		if herr != nil {
			writeError(w, herr.status, herr.msg)
			return
		}
		for j, idx := range missIdx {
			a := got[j]
			answers[idx] = a
			if a.Error != "" {
				continue
			}
			e := cachedRead{estimator: estimator, version: version, isGroup: a.IsGroup, count: a.Count, groups: a.Groups}
			switch {
			case version > 0:
				rt.cache.Put(keys[idx], e)
			case gens[j] == 0:
				// The node did not vouch for a live generation.
			case rt.gens.observe(estimator, gens[j]):
				e.gen = gens[j]
				rt.cache.Put(keys[idx], e)
			default:
				rt.staleSkips.Add(1)
			}
		}
	}
	writeBatchAnswers(w, estimator, version, answers, binaryResp)
}

// fetchMisses fetches the given items from the fleet on the binary wire,
// splitting across healthy nodes when the miss set itself clears the
// fan-out threshold, and returns the answers in item order plus the
// generation each answering node vouched for (0 when it did not). A node
// error keeps its own status so a single-node refusal (unknown estimator,
// oversized batch) reaches the client as the node sent it.
func (rt *Router) fetchMisses(ctx context.Context, estimator string, version int, items []query.BatchItem) ([]query.BatchAnswer, []uint64, *routeError) {
	ways := rt.fanoutWays(len(items))
	if ways > 1 {
		rt.fannedOut.Add(1)
	}
	assign := query.AssignRoundRobin(len(items), ways)
	parts := make([][]query.BatchAnswer, len(assign))
	partGens := make([]uint64, len(assign))
	errs := make([]*routeError, len(assign))
	header := http.Header{
		"Content-Type": []string{server.BinaryBatchContentType},
		"Accept":       []string{server.BinaryBatchContentType},
	}
	var wg sync.WaitGroup
	for wi, indexes := range assign {
		wg.Add(1)
		go func(wi int, indexes []int) {
			defer wg.Done()
			frame, err := query.AppendBatchAt(nil, estimator, version, query.Pick(items, indexes))
			if err != nil {
				errs[wi] = &routeError{status: http.StatusBadGateway, msg: err.Error()}
				return
			}
			resp, _, herr := rt.roundTrip(ctx, http.MethodPost, "/query/batch", header, frame, -1)
			if herr != nil {
				errs[wi] = herr
				return
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
				errs[wi] = &routeError{status: resp.StatusCode, msg: msg}
				return
			}
			if raw := resp.Header.Get(server.EstimatorGenerationHeader); raw != "" {
				if g, perr := strconv.ParseUint(raw, 10, 64); perr == nil {
					partGens[wi] = g
				}
			}
			_, answers, err := query.DecodeAnswers(resp.Body)
			if err != nil {
				errs[wi] = &routeError{status: http.StatusBadGateway, msg: fmt.Sprintf("sub-batch %d: %v", wi, err)}
				return
			}
			parts[wi] = answers
		}(wi, indexes)
	}
	wg.Wait()
	for _, herr := range errs {
		if herr != nil {
			return nil, nil, herr
		}
	}
	answers, err := query.GatherAnswers(len(items), assign, parts)
	if err != nil {
		return nil, nil, &routeError{status: http.StatusBadGateway, msg: err.Error()}
	}
	gens := make([]uint64, len(items))
	for wi, indexes := range assign {
		for _, idx := range indexes {
			gens[idx] = partGens[wi]
		}
	}
	return answers, gens, nil
}

// writeBatchAnswers emits a gathered answer stream on the client's wire,
// positionally identical to a single-node answer stream.
func writeBatchAnswers(w http.ResponseWriter, estimator string, version int, answers []query.BatchAnswer, binaryResp bool) {
	if binaryResp {
		frame, err := query.AppendAnswers(nil, estimator, answers)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", server.BinaryBatchContentType)
		_, _ = w.Write(frame)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.BatchQueryResponse{Estimator: estimator, Version: version, Answers: answers})
}
