package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/query"
)

// The read path. Every read endpoint — JSON POST /query, JSON POST
// /groupby, and the binary POST /query/batch — is an edge codec around one
// executor: a decoder below turns the HTTP request into a ReadRequest,
// Server.read answers it, and the handler encodes the answers back. A single
// query is a batch of one. The decoders and the cache key are exported
// because the fleet router speaks the same request language and keys its
// cache as a node does.

// ReadRequest is one decoded read: N items against one estimator at one
// version. Version is already resolved — a ?version=N URL parameter
// overrides the body's field, and anything non-positive is 0, the live
// estimator.
type ReadRequest struct {
	Estimator string
	Version   int
	Items     []query.BatchItem
}

// DecodeQuery decodes the JSON body of a POST /query request.
func DecodeQuery(r *http.Request, body io.Reader) (ReadRequest, error) {
	if r.Method != http.MethodPost {
		return ReadRequest{}, errUsePostQuery
	}
	var req QueryRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return ReadRequest{}, badRequest("malformed request body: %v", err)
	}
	return resolveVersion(r, ReadRequest{Estimator: req.Estimator, Version: req.Version,
		Items: []query.BatchItem{{Pred: req.Predicate}}})
}

// DecodeGroupBy decodes a POST /groupby request. A grouping attribute the
// binary wire could not carry is refused here, in the words its decoder
// uses, so a mistake reads the same on every tier.
func DecodeGroupBy(r *http.Request, body io.Reader) (ReadRequest, error) {
	if r.Method != http.MethodPost {
		return ReadRequest{}, errUsePost
	}
	var req GroupByRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return ReadRequest{}, badRequest("malformed request body: %v", err)
	}
	if len(req.GroupBy) == 0 {
		// An item without grouping attributes is a count; /groupby has no
		// such reading.
		return ReadRequest{}, errGroupByArity(0)
	}
	if err := query.CheckGroupBy(req.GroupBy); err != nil {
		return ReadRequest{}, badRequest("%v", err)
	}
	return resolveVersion(r, ReadRequest{Estimator: req.Estimator, Version: req.Version,
		Items: []query.BatchItem{{Pred: req.Predicate, GroupBy: req.GroupBy}}})
}

// DecodeBatch decodes a POST /query/batch request: the binary frame of
// internal/query, and nothing else.
func DecodeBatch(r *http.Request, body io.Reader) (ReadRequest, error) {
	if r.Method != http.MethodPost {
		return ReadRequest{}, errUsePost
	}
	if !strings.HasPrefix(r.Header.Get("Content-Type"), BinaryBatchContentType) {
		return ReadRequest{}, errBatchMediaType
	}
	estimator, version, items, err := query.DecodeBatchAt(body)
	if err != nil {
		return ReadRequest{}, badRequest("malformed batch frame: %v", err)
	}
	return resolveVersion(r, ReadRequest{Estimator: estimator, Version: version, Items: items})
}

// resolveVersion applies the ?version=N override and folds every
// non-positive version into 0.
func resolveVersion(r *http.Request, read ReadRequest) (ReadRequest, error) {
	v, herr := urlVersion(r)
	if herr != nil {
		return ReadRequest{}, herr
	}
	if v >= 0 {
		read.Version = v
	}
	if read.Version < 0 {
		read.Version = 0
	}
	return read, nil
}

// urlVersion parses the optional ?version=N parameter; -1 means absent.
func urlVersion(r *http.Request) (int, *httpError) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return -1, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return -1, badRequest("version must be a non-negative integer, got %q", raw)
	}
	return v, nil
}

var (
	errUsePost      = &httpError{status: http.StatusMethodNotAllowed, msg: "use POST"}
	errUsePostQuery = &httpError{status: http.StatusMethodNotAllowed,
		msg: "use POST /query with a JSON body (?version=N selects a snapshot)"}
	errBatchMediaType = &httpError{status: http.StatusUnsupportedMediaType,
		msg: "/query/batch takes a binary frame (Content-Type: " + BinaryBatchContentType +
			"); send a JSON read to POST /query or POST /groupby"}
)

func errGroupByArity(n int) *httpError {
	return badRequest("group_by needs 1..4 attributes, got %d", n)
}

// checkShape validates one item's shape against the entry's schema.
func checkShape(ent Entry, it query.BatchItem) *httpError {
	numAttrs := ent.Schema.NumAttrs()
	if it.Pred != nil && it.Pred.NumAttrs() != numAttrs {
		return badRequest("predicate has num_attrs=%d, estimator %q answers over %d attributes",
			it.Pred.NumAttrs(), ent.Name, numAttrs)
	}
	if len(it.GroupBy) > 4 {
		return errGroupByArity(len(it.GroupBy))
	}
	for i, a := range it.GroupBy {
		if a < 0 || a >= numAttrs {
			return badRequest("group_by attribute %d out of range [0,%d)", a, numAttrs)
		}
		for _, prev := range it.GroupBy[:i] {
			if prev == a {
				return badRequest("duplicate group_by attribute %d", a)
			}
		}
	}
	return nil
}

// AppendKeyPrefix appends the freshness half of every read-cache key, on a
// node and on the fleet router alike: the estimator's name and the version
// of the model that answers. query.BatchItem.AppendIdentity appends the
// other half.
//
// A version names one model on every node, so the key says exactly which
// model an answer came from: answers cached before a hot swap can never be
// served afterwards — even if an in-flight query of the old version stores
// its result after the swap's explicit invalidation ran — and a live read
// and a ?version=N read of the same version share their cached answers.
func AppendKeyPrefix(dst []byte, estimator string, version uint64) []byte {
	dst = append(dst, estimator...)
	dst = append(dst, 0)
	dst = strconv.AppendUint(dst, version, 10)
	return append(dst, 0)
}

// read is the node's one read path, and the only code that touches the
// result cache or asks an estimator for an answer. It resolves the
// estimator once — every answer of a request comes from the same registry
// snapshot (name + version), even if an ingest swaps the estimator
// mid-flight — then keys each item, serves hits from the cache without
// touching the worker pool, evaluates all misses under a single admission
// slot (a request pays one queue wait, not one per item), and stores what it
// computed.
//
// The *httpError fails the whole request: an unresolvable estimator, or a
// 503 (no slot) / 504 (timed out mid-request) admission outcome — partial
// answers are not reported. A per-item failure (shape mismatch, estimator
// refusal) lands in that answer's Error, so one bad item cannot void its
// batchmates; itemErrs, nil unless some item failed, carries the status a
// single-read endpoint reports it with (400 and 422).
func (s *Server) read(ctx context.Context, w http.ResponseWriter, req ReadRequest) (Entry, []query.BatchAnswer, []*httpError, *httpError) {
	ent, herr := s.lookupEntry(req.Estimator, req.Version)
	if herr != nil {
		return ent, nil, nil, herr
	}
	if req.Version <= 0 {
		// Time-travel answers are named by the version the client asked for.
		w.Header().Set(EstimatorGenerationHeader, strconv.Itoa(ent.Version))
	}

	items := req.Items
	answers := make([]query.BatchAnswer, len(items))
	var itemErrs []*httpError
	type miss struct {
		idx int
		key string
	}
	// Sized lazily on the first miss: an all-hit request (the steady state
	// a warm cache serves) never allocates the slice at all.
	var misses []miss
	// Every key of the request is built in this one buffer, behind the
	// prefix written once; a key becomes a string only for a miss, which
	// will store under it.
	var keyBuf [256]byte
	key := AppendKeyPrefix(keyBuf[:0], ent.Name, uint64(ent.Version))
	prefixLen := len(key)
	for i, it := range items {
		answers[i].IsGroup = len(it.GroupBy) > 0
		if kerr := checkShape(ent, it); kerr != nil {
			itemErrs = failItem(itemErrs, answers, i, kerr)
			continue
		}
		key = it.AppendIdentity(key[:prefixLen])
		if v, hit := s.cache.Lookup(key); hit {
			answers[i].Cached = true
			if answers[i].IsGroup {
				answers[i].Groups = v.([]query.GroupRow)
			} else {
				answers[i].Count = v.(float64)
			}
			continue
		}
		if misses == nil {
			misses = make([]miss, 0, len(items)-i)
		}
		misses = append(misses, miss{idx: i, key: string(key)})
	}
	if len(misses) == 0 {
		return ent, answers, itemErrs, nil
	}

	// The closure assigns missErrs, which moves it to the heap: it is a
	// variable of its own so that the all-hit return above does not pay.
	missErrs := itemErrs
	ctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	_, herr = s.execute(ctx, func() (interface{}, error) {
		for _, m := range misses {
			it := items[m.idx]
			var err error
			if len(it.GroupBy) > 0 {
				var groups []query.GroupRow
				if groups, err = ent.Estimator.EstimateGroupBy(it.GroupBy, it.Pred); err == nil {
					if groups == nil {
						groups = []query.GroupRow{} // "groups": [], never null
					}
					s.cache.Put(m.key, groups)
					answers[m.idx].Groups = groups
				}
			} else {
				var count float64
				if count, err = ent.Estimator.EstimateCount(it.Pred); err == nil {
					s.cache.Put(m.key, count)
					answers[m.idx].Count = count
				}
			}
			if err != nil {
				missErrs = failItem(missErrs, answers, m.idx,
					&httpError{status: http.StatusUnprocessableEntity, msg: err.Error()})
			}
		}
		return nil, nil
	})
	if herr != nil {
		return ent, nil, nil, herr
	}
	return ent, answers, missErrs, nil
}

// failItem records item i's failure in its answer and in the (lazily
// allocated) per-item status slice.
func failItem(itemErrs []*httpError, answers []query.BatchAnswer, i int, err *httpError) []*httpError {
	if itemErrs == nil {
		itemErrs = make([]*httpError, len(answers))
	}
	itemErrs[i] = err
	answers[i].Error = err.msg
	return itemErrs
}
