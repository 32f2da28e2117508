package server

import (
	"bytes"
	"io"
	"net/http"
	"sync"

	"repro/internal/query"
)

// BinaryBatchContentType is the media type of the binary batch frames on
// POST /query/batch (request and response; the frame magic distinguishes
// the two directions). The endpoint refuses any other body with a 415.
const BinaryBatchContentType = "application/x-entropydb-batch"

// handleBatch serves POST /query/batch: N queries answered in one round
// trip, as binary frames of internal/query both ways.
//
// Batch-level problems (malformed frame, unknown estimator, oversized
// batch, admission failure) are HTTP errors; per-query problems (arity
// mismatch, estimator refusal) land in that answer's error field under a
// 200, so one bad query cannot void its batchmates.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	s.finish(w, start, s.serveBatch(w, r))
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) *httpError {
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
		s.metrics.RecordBatch(len(req.Items), body.n)
	}
	if herr != nil {
		return herr
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
	pb := bufPool.Get().(*pooledBuf)
	defer bufPool.Put(pb)
	frame, err := query.AppendAnswers(pb.b[:0], estimator, answers)
	if err != nil {
		return err
	}
	pb.b = frame
	w.Header().Set("Content-Type", BinaryBatchContentType)
	w.WriteHeader(http.StatusOK)
	// Write copies the frame into the HTTP buffer, so the buffer can go
	// back to the pool right after.
	_, _ = w.Write(frame)
	return nil
}

// pooledBuf wraps a pooled byte buffer (a pointer-shaped pool entry, so Put
// never allocates).
type pooledBuf struct{ b []byte }

// readAll reads body whole into the buffer and returns its bytes, which stay
// valid until the buffer goes back to the pool.
func (pb *pooledBuf) readAll(body io.Reader) ([]byte, error) {
	buf := bytes.NewBuffer(pb.b[:0])
	_, err := buf.ReadFrom(body)
	pb.b = buf.Bytes()
	return pb.b, err
}

// bufPool recycles the buffers a request's JSON body is read into and a
// response is encoded in.
var bufPool = sync.Pool{New: func() interface{} { return new(pooledBuf) }}

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
