package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// fuzzServer starts a tiny server behind an httptest server for the body
// fuzzers: 6x6 single-channel samples (144 bytes as a tensor), at most
// two to a call.
func fuzzServer(f *testing.F) (*Server, string) {
	cfg := testConfig(2)
	cfg.SampleShape = []int{1, 6, 6}
	s := newTestServer(f, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)
	return s, ts.URL
}

// postBody posts body to url and returns the status, the headers and the
// response body. A transport error fails the test: the handler must answer
// every body.
func postBody(t *testing.T, url, contentType string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// samples returns n deterministic samples of the server's length.
func samples(s *Server, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, s.SampleLen())
		fillSample(out[i], i)
	}
	return out
}

// FuzzTensorBody drives arbitrary bytes through POST /v1/tensor: the
// handler never panics and answers 200 or 400, and a 200 carries X-Batch
// rows of X-Classes little-endian float32 scores, one row per sample the
// body held.
func FuzzTensorBody(f *testing.F) {
	s, url := fuzzServer(f)
	tensor := func(in [][]float32) []byte {
		var b []byte
		for _, one := range in {
			for _, v := range one {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
			}
		}
		return b
	}
	one := tensor(samples(s, 1))
	f.Add(one)                                 // valid, one sample
	f.Add(tensor(samples(s, 2)))               // valid, MaxBatch samples
	f.Add([]byte{})                            // empty
	f.Add(one[:len(one)-1])                    // one byte short
	f.Add(append(append([]byte{}, one...), 0)) // one byte over
	f.Add(tensor(samples(s, 3)))               // over MaxBatch
	sampleBytes := 4 * s.SampleLen()
	f.Fuzz(func(t *testing.T, body []byte) {
		status, hdr, out := postBody(t, url+"/v1/tensor", "application/octet-stream", body)
		switch status {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for a %d-byte body: %s", status, len(body), out)
		}
		batch, err1 := strconv.Atoi(hdr.Get("X-Batch"))
		classes, err2 := strconv.Atoi(hdr.Get("X-Classes"))
		if err1 != nil || err2 != nil {
			t.Fatalf("200 with X-Batch %q, X-Classes %q", hdr.Get("X-Batch"), hdr.Get("X-Classes"))
		}
		if batch*classes*4 != len(out) {
			t.Fatalf("X-Batch %d × X-Classes %d × 4 = %d, response is %d bytes", batch, classes, batch*classes*4, len(out))
		}
		if batch*sampleBytes != len(body) || classes != s.Config().Classes {
			t.Fatalf("200 for a %d-byte body reports %d samples of %d classes", len(body), batch, classes)
		}
	})
}

// FuzzPredictBody drives arbitrary bytes through POST /v1/predict: the
// handler never panics and answers 200 or 400, and a 200 carries one score
// row of the server's class count and one argmax per input.
func FuzzPredictBody(f *testing.F) {
	s, url := fuzzServer(f)
	jsonOf := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	in := samples(s, 3)
	f.Add(jsonOf(map[string]any{"input": in[0]}))               // valid, one input
	f.Add(jsonOf(map[string]any{"inputs": in[:2]}))             // valid, MaxBatch inputs
	f.Add([]byte{})                                             // empty
	f.Add(jsonOf(map[string]any{"input": in[0][1:]}))           // one value short
	f.Add(jsonOf(map[string]any{"input": append(in[0], 0)}))    // one value over
	f.Add(jsonOf(map[string]any{"inputs": in}))                 // over MaxBatch
	f.Add(jsonOf(map[string]any{"input": in[0], "inputs": in})) // both fields
	huge := make([]float32, s.SampleLen())
	for i := range huge {
		huge[i] = float32(1-2*(i%2)) * 3e38
	}
	f.Add(jsonOf(map[string]any{"input": huge})) // finite input, non-finite scores
	f.Fuzz(func(t *testing.T, body []byte) {
		status, _, out := postBody(t, url+"/v1/predict", "application/json", body)
		switch status {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q: %s", status, body, out)
		}
		var got predictOut
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", out, err)
		}
		if len(got.Scores) == 0 || len(got.Scores) != len(got.Argmax) || len(got.Scores) > s.Config().MaxBatch {
			t.Fatalf("200 with %d score rows and %d argmax", len(got.Scores), len(got.Argmax))
		}
		for i, row := range got.Scores {
			if len(row) != s.Config().Classes {
				t.Fatalf("score row %d has %d values, want %d", i, len(row), s.Config().Classes)
			}
		}
	})
}
