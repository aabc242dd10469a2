package serve

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/predict  JSON in/out (one input or a small list)
//	POST /v1/tensor   raw little-endian f32 tensors in/out
//	GET  /healthz     liveness
//	GET  /v1/info     model and batcher configuration
//	GET  /v1/stats    counters (Stats)
//
// SERVING.md documents the request/response schemas. Overload maps to
// 429 with a Retry-After hint; shutdown to 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/tensor", s.handleTensor)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// predictIn is the /v1/predict request body: exactly one of Input (a
// single sample) or Inputs (up to MaxBatch samples), each flattened to
// SampleLen floats.
type predictIn struct {
	Input  []float32   `json:"input,omitempty"`
	Inputs [][]float32 `json:"inputs,omitempty"`
}

// predictOut is the /v1/predict response body: one score row and one
// argmax per input, in order.
type predictOut struct {
	Scores [][]float32 `json:"scores"`
	Argmax []int       `json:"argmax"`
}

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// submitError maps a Do error onto the HTTP response, setting
// Retry-After on overload so well-behaved clients back off.
func submitError(w http.ResponseWriter, err error) {
	switch err {
	case ErrOverloaded:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error()})
	case ErrClosed, ErrNotStarted:
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var in predictIn
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(16+12*(s.cfg.MaxBatch+1)*s.sampleLen)))
	if err := dec.Decode(&in); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad JSON: " + err.Error()})
		return
	}
	inputs := in.Inputs
	if in.Input != nil {
		if inputs != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: `use "input" or "inputs", not both`})
			return
		}
		inputs = [][]float32{in.Input}
	}
	if len(inputs) == 0 {
		writeJSON(w, http.StatusBadRequest, httpError{Error: `missing "input" or "inputs"`})
		return
	}
	if len(inputs) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusBadRequest, httpError{
			Error: "too many inputs in one call (max " + strconv.Itoa(s.cfg.MaxBatch) + "); issue concurrent calls instead",
		})
		return
	}
	for i, one := range inputs {
		if len(one) != s.sampleLen {
			writeJSON(w, http.StatusBadRequest, httpError{
				Error: "input " + strconv.Itoa(i) + " has " + strconv.Itoa(len(one)) + " values, want " + strconv.Itoa(s.sampleLen),
			})
			return
		}
	}
	reqs, err := s.doAll(inputs, func(dst []float32, i int) { copy(dst, inputs[i]) })
	if err != nil {
		submitError(w, err)
		return
	}
	out := predictOut{Scores: make([][]float32, len(reqs)), Argmax: make([]int, len(reqs))}
	for i, req := range reqs {
		out.Scores[i] = append([]float32(nil), req.scores...)
		out.Argmax[i] = Argmax(req.scores)
		s.Release(req)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTensor is the raw-tensor endpoint: the body is k samples of
// SampleLen little-endian float32s back to back (k ≤ MaxBatch inferred
// from the body length); the response is k rows of Classes float32s in
// the same encoding, with X-Batch and X-Classes headers.
func (s *Server) handleTensor(w http.ResponseWriter, r *http.Request) {
	sampleBytes := 4 * s.sampleLen
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxBatch*sampleBytes)+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "body too large or unreadable: " + err.Error()})
		return
	}
	if len(body) == 0 || len(body)%sampleBytes != 0 {
		writeJSON(w, http.StatusBadRequest, httpError{
			Error: "body length " + strconv.Itoa(len(body)) + " is not a positive multiple of " + strconv.Itoa(sampleBytes) +
				" (SampleLen " + strconv.Itoa(s.sampleLen) + " × 4 bytes)",
		})
		return
	}
	k := len(body) / sampleBytes
	reqs, err := s.doAll(make([][]float32, k), func(dst []float32, i int) {
		raw := body[i*sampleBytes:]
		for j := range dst {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
	})
	if err != nil {
		submitError(w, err)
		return
	}
	out := make([]byte, 4*k*s.cfg.Classes)
	for i, req := range reqs {
		for j, v := range req.scores {
			binary.LittleEndian.PutUint32(out[4*(i*s.cfg.Classes+j):], math.Float32bits(v))
		}
		s.Release(req)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Batch", strconv.Itoa(k))
	w.Header().Set("X-Classes", strconv.Itoa(s.cfg.Classes))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// doAll acquires one request per input, stages inputs via fill, submits
// them all, then waits. The samples of one call are admitted together
// but may ride in more than one batch (an idle replica takes whatever is
// queued when it frees up); batching is bit-identical, so the scores do
// not depend on the split. On a submission error the already-submitted
// requests are drained before everything is released, so no request
// leaks into the pool while still in flight.
func (s *Server) doAll(inputs [][]float32, fill func(dst []float32, i int)) ([]*Request, error) {
	reqs := make([]*Request, len(inputs))
	for i := range inputs {
		reqs[i] = s.Acquire()
		fill(reqs[i].in, i)
	}
	for i, req := range reqs {
		if err := s.submit(req); err != nil {
			for _, prev := range reqs[:i] {
				<-prev.done
			}
			for _, r := range reqs {
				s.Release(r)
			}
			return nil, err
		}
	}
	for _, req := range reqs {
		<-req.done
	}
	return reqs, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"model":        s.cfg.Model,
		"sample_shape": s.cfg.SampleShape,
		"sample_len":   s.sampleLen,
		"classes":      s.cfg.Classes,
		"score_blob":   s.cfg.ScoreBlob,
		"max_batch":    s.cfg.MaxBatch,
		"replicas":     s.cfg.Replicas,
		"queue_depth":  s.cfg.QueueDepth,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"received":        st.Received,
		"rejected":        st.Rejected,
		"served":          st.Served,
		"batches":         st.Batches,
		"samples":         st.Samples,
		"full_flushes":    st.FullFlushes,
		"partial_flushes": st.PartialFlushes,
		"mean_batch":      st.MeanBatch,
		"mean_latency_ms": float64(st.MeanLatency.Microseconds()) / 1000,
	})
}
