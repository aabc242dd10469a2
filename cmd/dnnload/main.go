// Command dnnload is the load generator for dnnserve: it sweeps client
// concurrency levels against a running server and reports throughput
// and latency percentiles per level — the measurement behind the
// batching-win numbers in SERVING.md.
//
//	dnnserve -zoo lenet -snapshot model.cgdnn -addr :0 -addr-file /tmp/addr
//	dnnload  -addr "$(cat /tmp/addr)" -concurrency 1,8,32 -duration 3s
//
// Each client goroutine issues single-sample requests back to back over
// a keep-alive connection; the server's dynamic batcher supplies all
// cross-client coalescing, so the sweep directly shows how batch
// formation scales with offered concurrency. -probe sends one JSON
// request and exits 0 on a valid response (used by the CI smoke test).
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type serverInfo struct {
	Model     string `json:"model"`
	SampleLen int    `json:"sample_len"`
	Classes   int    `json:"classes"`
	MaxBatch  int    `json:"max_batch"`
	Replicas  int    `json:"replicas"`
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "dnnserve address (host:port)")
		levels   = flag.String("concurrency", "1,2,4,8,16,32", "comma-separated client counts to sweep")
		duration = flag.Duration("duration", 3*time.Second, "measured window per concurrency level")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "unmeasured warm-up per level")
		useJSON  = flag.Bool("json", false, "use the /v1/predict JSON endpoint instead of /v1/tensor")
		probe    = flag.Bool("probe", false, "send one JSON request, validate the response, exit")
	)
	flag.Parse()
	base := "http://" + *addr

	info, err := fetchInfo(base)
	if err != nil {
		fatal(err)
	}
	if *probe {
		if err := runProbe(base, info); err != nil {
			fatal(err)
		}
		return
	}

	concs, err := parseLevels(*levels)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dnnload: %s on %s — sample_len %d, classes %d, max_batch %d, replicas %d\n",
		info.Model, *addr, info.SampleLen, info.Classes, info.MaxBatch, info.Replicas)
	endpoint := "/v1/tensor"
	if *useJSON {
		endpoint = "/v1/predict"
	}
	fmt.Printf("dnnload: endpoint %s, %v per level after %v warm-up\n\n", endpoint, *duration, *warmup)
	fmt.Printf("%5s %9s %7s %7s %12s %9s %9s %9s\n", "conc", "requests", "429s", "errors", "req/s", "p50(ms)", "p95(ms)", "p99(ms)")
	for _, c := range concs {
		res := runLevel(base, info, c, *duration, *warmup, *useJSON)
		fmt.Printf("%5d %9d %7d %7d %12.1f %9.2f %9.2f %9.2f\n",
			c, res.requests, res.rejected, res.errors, res.throughput,
			ms(res.p50), ms(res.p95), ms(res.p99))
	}
}

// sweepResult aggregates one concurrency level.
type sweepResult struct {
	requests, rejected, errors int64
	throughput                 float64
	p50, p95, p99              time.Duration
}

// worker state: per-client latency log, merged after the level ends.
type worker struct {
	lats             []time.Duration
	rejected, errors int64
}

// runLevel drives c clients for warmup+duration and aggregates the
// measured window.
func runLevel(base string, info serverInfo, c int, duration, warmup time.Duration, useJSON bool) sweepResult {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        c,
		MaxIdleConnsPerHost: c,
	}}
	defer client.CloseIdleConnections()

	bodies := sampleBodies(info, 16, useJSON)
	var start, stop time.Time
	var mu sync.Mutex
	workers := make([]*worker, c)
	var wg sync.WaitGroup
	begin := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < c; i++ {
		w := &worker{}
		workers[i] = w
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-begin
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				body := bodies[(id+n)%len(bodies)]
				t0 := time.Now()
				status, err := post(client, base, body, useJSON)
				lat := time.Since(t0)
				mu.Lock()
				inWindow := !start.IsZero() && t0.After(start) && time.Now().Before(stop)
				mu.Unlock()
				switch {
				case status == http.StatusTooManyRequests:
					if inWindow {
						w.rejected++
					}
					time.Sleep(time.Millisecond) // back off as Retry-After suggests, scaled down
				case err != nil || status != http.StatusOK:
					// A transport error or any other status: counted, and
					// the client backs off as it does on a 429, so a
					// refused port costs a connection a millisecond, not a
					// busy loop of them.
					if inWindow {
						w.errors++
					}
					time.Sleep(time.Millisecond)
				case inWindow:
					w.lats = append(w.lats, lat)
				}
			}
		}(i)
	}
	close(begin)
	time.Sleep(warmup)
	mu.Lock()
	start = time.Now()
	stop = start.Add(duration)
	mu.Unlock()
	time.Sleep(duration)
	close(done)
	wg.Wait()

	var all []time.Duration
	var res sweepResult
	for _, w := range workers {
		all = append(all, w.lats...)
		res.rejected += w.rejected
		res.errors += w.errors
	}
	res.requests = int64(len(all))
	res.throughput = float64(len(all)) / duration.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.p50 = percentile(all, 50)
	res.p95 = percentile(all, 95)
	res.p99 = percentile(all, 99)
	return res
}

// sampleBodies pre-encodes n distinct single-sample request bodies so
// the measurement loop does no marshalling.
func sampleBodies(info serverInfo, n int, useJSON bool) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		sample := make([]float32, info.SampleLen)
		for j := range sample {
			sample[j] = float32((i*31+j)%17) / 17
		}
		if useJSON {
			raw, err := json.Marshal(map[string]any{"input": sample})
			if err != nil {
				fatal(err)
			}
			bodies[i] = raw
		} else {
			raw := make([]byte, 4*len(sample))
			for j, v := range sample {
				binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(v))
			}
			bodies[i] = raw
		}
	}
	return bodies
}

func post(client *http.Client, base string, body []byte, useJSON bool) (int, error) {
	url, ctype := base+"/v1/tensor", "application/octet-stream"
	if useJSON {
		url, ctype = base+"/v1/predict", "application/json"
	}
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func fetchInfo(base string) (serverInfo, error) {
	var info serverInfo
	resp, err := http.Get(base + "/v1/info")
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("GET /v1/info: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, err
	}
	if info.SampleLen <= 0 || info.Classes <= 0 {
		return info, fmt.Errorf("GET /v1/info: implausible model (sample_len %d, classes %d)", info.SampleLen, info.Classes)
	}
	return info, nil
}

// runProbe is the CI smoke check: one JSON prediction must come back
// 200 with a plausible score row.
func runProbe(base string, info serverInfo) error {
	sample := make([]float32, info.SampleLen)
	for j := range sample {
		sample[j] = float32(j%17) / 17
	}
	raw, err := json.Marshal(map[string]any{"input": sample})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe: status %d", resp.StatusCode)
	}
	var out struct {
		Scores [][]float32 `json:"scores"`
		Argmax []int       `json:"argmax"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("probe: bad response: %w", err)
	}
	if len(out.Scores) != 1 || len(out.Scores[0]) != info.Classes || len(out.Argmax) != 1 {
		return fmt.Errorf("probe: response shape: %d score rows, %d argmax", len(out.Scores), len(out.Argmax))
	}
	for _, v := range out.Scores[0] {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("probe: non-finite score %g", v)
		}
	}
	fmt.Printf("probe ok: %d classes, argmax %d, score[argmax] %.4f\n",
		info.Classes, out.Argmax[0], out.Scores[0][out.Argmax[0]])
	return nil
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("bad -concurrency %q: want positive ints like 1,8,32", s)
		}
		out = append(out, c)
	}
	return out, nil
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)-1)*p + 50
	return sorted[idx/100]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnnload:", err)
	os.Exit(1)
}
