package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
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
	rd, err := decodeJSONRead(body, false)
	if err != nil {
		return ReadRequest{}, err
	}
	return resolveVersion(r, ReadRequest{Estimator: rd.Estimator, Version: rd.Version,
		Items: []query.BatchItem{rd.Item}})
}

// DecodeGroupBy decodes a POST /groupby request. A grouping attribute the
// binary wire could not carry is refused here, in the words its decoder
// uses, so a mistake reads the same on every tier.
func DecodeGroupBy(r *http.Request, body io.Reader) (ReadRequest, error) {
	if r.Method != http.MethodPost {
		return ReadRequest{}, errUsePost
	}
	rd, err := decodeJSONRead(body, true)
	if err != nil {
		return ReadRequest{}, err
	}
	if len(rd.Item.GroupBy) == 0 {
		// An item without grouping attributes is a count; /groupby has no
		// such reading.
		return ReadRequest{}, errGroupByArity(0)
	}
	if err := query.CheckGroupBy(rd.Item.GroupBy); err != nil {
		return ReadRequest{}, badRequest("%v", err)
	}
	return resolveVersion(r, ReadRequest{Estimator: rd.Estimator, Version: rd.Version,
		Items: []query.BatchItem{rd.Item}})
}

// decodeJSONRead reads a JSON single read's body whole and decodes it in one
// pass when it has the shape json.Marshal writes (query.DecodeJSONRead). Any
// other body, and one whose read failed part way, is decoded by
// encoding/json from the same bytes followed by the same read error: that
// path decides what is accepted and words every refusal, as it did when it
// read the body itself.
func decodeJSONRead(body io.Reader, groupBy bool) (query.JSONRead, error) {
	pb := bufPool.Get().(*pooledBuf)
	defer bufPool.Put(pb)
	buf := bytes.NewBuffer(pb.b[:0])
	_, rerr := buf.ReadFrom(body)
	data := buf.Bytes()
	pb.b = data // nothing decoded aliases the buffer: it goes back to the pool
	rd, ok, err := query.DecodeJSONRead(data, groupBy)
	if !ok || rerr != nil {
		var src io.Reader = bytes.NewReader(data)
		if rerr != nil {
			src = io.MultiReader(src, errReader{rerr})
		}
		dec := json.NewDecoder(src)
		if groupBy {
			var req GroupByRequest
			err = dec.Decode(&req)
			rd = query.JSONRead{Estimator: req.Estimator, Version: req.Version,
				Item: query.BatchItem{Pred: req.Predicate, GroupBy: req.GroupBy}}
		} else {
			var req QueryRequest
			err = dec.Decode(&req)
			rd = query.JSONRead{Estimator: req.Estimator, Version: req.Version,
				Item: query.BatchItem{Pred: req.Predicate}}
		}
	}
	if err != nil {
		return query.JSONRead{}, badRequest("malformed request body: %v", err)
	}
	return rd, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// WriteJSONAnswer writes a 200 answer to a single read, POST /query or POST
// /groupby: the one JSON encoder of the node and the router. The body is
// appended in a pooled buffer, byte for byte what json.Encoder writes for the
// QueryResponse or GroupByResponse, and a group-by without groups answers
// "groups": [], never null. An answer json.Encoder would escape or refuse —
// an estimator name outside printable ASCII or holding a character it
// escapes, or a count that is not finite — goes through json.Encoder
// itself.
func WriteJSONAnswer(w http.ResponseWriter, estimator string, version int, a query.BatchAnswer, latencyNS int64) {
	pb := bufPool.Get().(*pooledBuf)
	defer bufPool.Put(pb)
	body, ok := appendJSONAnswer(pb.b[:0], estimator, version, a, latencyNS)
	pb.b = body
	if !ok {
		var resp interface{} = QueryResponse{Estimator: estimator, Version: version,
			Count: a.Count, Cached: a.Cached, LatencyNS: latencyNS}
		if a.IsGroup {
			if a.Groups == nil {
				a.Groups = []query.GroupRow{}
			}
			resp = GroupByResponse{Estimator: estimator, Version: version,
				Groups: a.Groups, Cached: a.Cached, LatencyNS: latencyNS}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Write copies the body into the HTTP buffer, so the buffer can go back
	// to the pool right after.
	_, _ = w.Write(body)
}

// appendJSONAnswer appends what json.Encoder writes for the answer's
// response, nil groups as []; ok is false when that takes an escape or a
// refusal this encoder does not make.
func appendJSONAnswer(b []byte, estimator string, version int, a query.BatchAnswer, latencyNS int64) (_ []byte, ok bool) {
	for i := 0; i < len(estimator); i++ {
		if c := estimator[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			return b, false
		}
	}
	b = append(b, `{"estimator":"`...)
	b = append(b, estimator...)
	b = append(b, '"')
	if version != 0 {
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(version), 10)
	}
	ok = true
	if a.IsGroup {
		b = append(b, `,"groups":[`...)
		for i, g := range a.Groups {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"values":`...)
			if g.Values == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, v := range g.Values {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(v), 10)
				}
				b = append(b, ']')
			}
			b = append(b, `,"estimate":`...)
			b = appendJSONFloat(b, g.Estimate)
			b = append(b, '}')
			ok = ok && isFinite(g.Estimate)
		}
		b = append(b, ']')
	} else {
		b = append(b, `,"count":`...)
		b = appendJSONFloat(b, a.Count)
		ok = isFinite(a.Count)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, a.Cached)
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, latencyNS, 10)
	return append(b, "}\n"...), ok
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest decimal that reads back the same, in exponent form below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
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
	if r.URL.RawQuery == "" {
		return -1, nil
	}
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
// model an answer came from, and it is the whole freshness rule: a live read
// after a hot swap keys at the new version and never meets an answer cached
// before it — even one an in-flight query of the old version stores after
// the swap — while a ?version=N read of the replaced version still does, and
// a live read and a ?version=N read of the same version share their cached
// answers. No swap drops an entry.
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
	_, herr = s.execute(ctx, w, func() (interface{}, error) {
		for _, m := range misses {
			it := items[m.idx]
			var err error
			if len(it.GroupBy) > 0 {
				var groups []query.GroupRow
				if groups, err = ent.Estimator.EstimateGroupBy(it.GroupBy, it.Pred); err == nil {
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
