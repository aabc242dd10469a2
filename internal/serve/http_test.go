package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, testConfig(4))
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestPredictEndpoint(t *testing.T) {
	s, ts := testHTTPServer(t)
	in := make([]float32, s.SampleLen())
	fillSample(in, 3)
	resp := postJSON(t, ts.URL+"/v1/predict", map[string]any{"input": in})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out predictOut
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scores) != 1 || len(out.Scores[0]) != 10 || len(out.Argmax) != 1 {
		t.Fatalf("shape: %d score rows, %d argmax", len(out.Scores), len(out.Argmax))
	}
	if want := doSample(t, s, 3); out.Argmax[0] != Argmax(want) {
		t.Fatalf("argmax %d, want %d", out.Argmax[0], Argmax(want))
	}
}

func TestPredictEndpointMultiInput(t *testing.T) {
	s, ts := testHTTPServer(t)
	inputs := make([][]float32, 3)
	for i := range inputs {
		inputs[i] = make([]float32, s.SampleLen())
		fillSample(inputs[i], i)
	}
	resp := postJSON(t, ts.URL+"/v1/predict", map[string]any{"inputs": inputs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out predictOut
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scores) != 3 {
		t.Fatalf("%d score rows, want 3", len(out.Scores))
	}
	for i := range inputs {
		want := doSample(t, s, i)
		for j := range want {
			if out.Scores[i][j] != want[j] {
				t.Fatalf("row %d score %d: %g != %g", i, j, out.Scores[i][j], want[j])
			}
		}
	}
}

func TestPredictEndpointRejectsBadInput(t *testing.T) {
	s, ts := testHTTPServer(t)
	cases := []struct {
		name string
		body any
	}{
		{"empty", map[string]any{}},
		{"short input", map[string]any{"input": []float32{1, 2, 3}}},
		{"both fields", map[string]any{"input": make([]float32, s.SampleLen()), "inputs": [][]float32{make([]float32, s.SampleLen())}}},
		{"too many", map[string]any{"inputs": [][]float32{
			make([]float32, s.SampleLen()), make([]float32, s.SampleLen()), make([]float32, s.SampleLen()),
			make([]float32, s.SampleLen()), make([]float32, s.SampleLen()),
		}}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/predict", tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestTensorEndpointMatchesPredict round-trips two samples through the
// raw-f32 endpoint and checks bit-identity with the in-process path.
func TestTensorEndpointMatchesPredict(t *testing.T) {
	s, ts := testHTTPServer(t)
	const k = 2
	body := make([]byte, 4*k*s.SampleLen())
	sample := make([]float32, s.SampleLen())
	for i := 0; i < k; i++ {
		fillSample(sample, i)
		for j, v := range sample {
			binary.LittleEndian.PutUint32(body[4*(i*s.SampleLen()+j):], math.Float32bits(v))
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tensor", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Batch"); got != "2" {
		t.Fatalf("X-Batch %q", got)
	}
	raw := make([]byte, 4*k*10)
	if _, err := io.ReadFull(resp.Body, raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		want := doSample(t, s, i)
		for j := range want {
			got := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i*10+j):]))
			if got != want[j] {
				t.Fatalf("sample %d score %d: %g != %g", i, j, got, want[j])
			}
		}
	}
}

func TestTensorEndpointRejectsBadLength(t *testing.T) {
	_, ts := testHTTPServer(t)
	resp, err := http.Post(ts.URL+"/v1/tensor", "application/octet-stream", bytes.NewReader(make([]byte, 7)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestOverloadReturns429 drives the HTTP overload path with the same
// no-batcher trick as TestBackpressureRejects.
func TestOverloadReturns429(t *testing.T) {
	cfg := testConfig(4)
	cfg.QueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	if err := s.submit(s.Acquire()); err != nil { // fill the queue
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	in := make([]float32, s.SampleLen())
	resp := postJSON(t, ts.URL+"/v1/predict", map[string]any{"input": in})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestInfoHealthStats(t *testing.T) {
	s, ts := testHTTPServer(t)
	doSample(t, s, 0)
	for _, path := range []string{"/healthz", "/v1/info", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		switch path {
		case "/v1/info":
			if body["classes"] != float64(10) || body["max_batch"] != float64(4) {
				t.Fatalf("info: %v", body)
			}
		case "/v1/stats":
			if body["served"].(float64) < 1 {
				t.Fatalf("stats: %v", body)
			}
		}
	}
}
