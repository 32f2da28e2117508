package server

import (
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/query"
)

// BinaryBatchContentType is the media type of the binary batch frames on
// POST /query/batch (request and response; the frame magic distinguishes
// the two directions). Anything else is treated as JSON.
const BinaryBatchContentType = "application/x-entropydb-batch"

// BatchQueryItem is one query of a JSON POST /query/batch body. An empty
// group_by asks for a count; a non-empty one for a group-by.
type BatchQueryItem struct {
	Predicate *query.Predicate `json:"predicate,omitempty"`
	GroupBy   []int            `json:"group_by,omitempty"`
}

// BatchQueryRequest is the JSON body of POST /query/batch. Version > 0
// answers the whole batch from that retained snapshot of the estimator's
// dataset key (the binary wire carries the same field in its format v2
// frame); a ?version=N URL parameter overrides it on either wire.
type BatchQueryRequest struct {
	Estimator string           `json:"estimator"`
	Version   int              `json:"version,omitempty"`
	Queries   []BatchQueryItem `json:"queries"`
}

// BatchResult is one answer of a JSON batch response. Exactly one of
// count/groups/error is meaningful: error for a per-query failure, groups
// when is_group, count otherwise.
type BatchResult = query.BatchAnswer

// BatchQueryResponse is the JSON body of a successful POST /query/batch.
// Version echoes the snapshot version that answered (0 = live).
type BatchQueryResponse struct {
	Estimator string        `json:"estimator"`
	Version   int           `json:"version,omitempty"`
	Answers   []BatchResult `json:"answers"`
	LatencyNS int64         `json:"latency_ns"`
}

// handleBatch serves POST /query/batch: N queries answered in one round
// trip. The request wire is chosen by Content-Type and the response wire
// by Accept (WantBinaryAnswers); both JSON and the binary frame of
// internal/query are supported, and they produce bit-identical answers
// because both are codecs around the same read.
//
// Batch-level problems (malformed body, unknown estimator, empty or
// oversized batch, admission failure) are HTTP errors; per-query problems
// (arity mismatch, estimator refusal) land in that answer's error field
// under a 200, so one bad query cannot void its batchmates.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	s.finish(w, start, s.serveBatch(w, r, start))
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, start time.Time) *httpError {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)}
	req, err := DecodeBatch(r, body)
	if err != nil {
		return asHTTPError(err)
	}
	if len(req.Items) > s.opts.MaxBatch {
		return badRequest("batch of %d queries exceeds the limit of %d", len(req.Items), s.opts.MaxBatch)
	}
	ent, answers, _, herr := s.read(r.Context(), w, req)
	if ent.Estimator != nil {
		// A batch counts once its estimator resolved, whatever admission
		// decided afterwards.
		s.metrics.RecordBatch(len(req.Items), body.n, req.Binary)
	}
	if herr != nil {
		return herr
	}
	if !WantBinaryAnswers(r, req.Binary) {
		writeJSON(w, http.StatusOK, BatchQueryResponse{
			Estimator: ent.Name,
			Version:   ent.Snapshot,
			Answers:   answers,
			LatencyNS: s.opts.Now().Sub(start).Nanoseconds(),
		})
		return nil
	}
	if ferr := WriteBinaryAnswers(w, ent.Name, answers); ferr != nil {
		return &httpError{status: http.StatusInternalServerError, msg: ferr.Error()}
	}
	return nil
}

// WriteBinaryAnswers writes a 200 binary batch response, the one encoder of
// the node and the router. The frame is assembled in a pooled buffer — after
// warm-up a cached-answer frame allocates nothing — and nothing is written
// when it cannot be assembled.
func WriteBinaryAnswers(w http.ResponseWriter, estimator string, answers []query.BatchAnswer) error {
	rb := respBufPool.Get().(*respBuf)
	defer respBufPool.Put(rb)
	frame, err := query.AppendAnswers(rb.b[:0], estimator, answers)
	if err != nil {
		return err
	}
	rb.b = frame
	w.Header().Set("Content-Type", BinaryBatchContentType)
	w.WriteHeader(http.StatusOK)
	// Write copies the frame into the HTTP buffer, so the buffer can go
	// back to the pool right after.
	_, _ = w.Write(frame)
	return nil
}

// respBuf wraps the pooled binary-response buffer (a pointer-shaped pool
// entry, so Put never allocates).
type respBuf struct{ b []byte }

// respBufPool recycles binary batch response buffers across requests.
var respBufPool = sync.Pool{New: func() interface{} { return new(respBuf) }}

// countingReader counts consumed body bytes for the bytes-per-query
// histogram (Content-Length may be absent on chunked uploads).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
