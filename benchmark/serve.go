package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/serve"
	"coarsegrain/internal/zoo"
)

const (
	// poolSize is the number of distinct inputs requests are drawn from.
	poolSize = 256
	// openRate is the open loop's fixed arrival rate, about a third of
	// what one replica can serve on the reference host.
	openRate = 400.0
	// callers is the closed loop's client count and the open loop's
	// worker count (enough that a free worker always exists at openRate).
	callers = 64
	classes = 10
)

// samplePool is the seeded input pool with its reference scores.
type samplePool struct {
	in  [][]float32
	ref [][]float32
}

// Len, SampleShape, Classes and Read make the pool a layers.Source, so
// the reference net reads it through its own data layer.
func (p *samplePool) Len() int           { return len(p.in) }
func (p *samplePool) SampleShape() []int { return []int{1, 28, 28} }
func (p *samplePool) Classes() int       { return classes }
func (p *samplePool) Read(i int, out []float32) int {
	copy(out, p.in[i])
	return 0
}

// lenetBuilder is the model dnnserve serves: zoo LeNet, lowered conv.
func lenetBuilder(seed int64) serve.Builder {
	return func(src layers.Source) ([]net.LayerSpec, error) {
		return zoo.LeNet(src, zoo.Options{Seed: uint64(seed), LoweredConv: true})
	}
}

// forwardNet builds a stand-alone forward-only LeNet at a fixed batch
// over src, the way a serving replica does.
func forwardNet(seed int64, src layers.Source, batch int, eng core.Engine) (*net.Net, error) {
	specs, err := zoo.LeNet(src, zoo.Options{Seed: uint64(seed), LoweredConv: true, BatchSize: batch})
	if err != nil {
		return nil, err
	}
	return net.NewForward(serve.StripTraining(specs), eng)
}

// newSamplePool draws the inputs from the seed and computes each one's
// scores with a batch-1 forward-only net: the reference every response
// must equal bit for bit.
func newSamplePool(o runOpts) (*samplePool, error) {
	src := data.NewSyntheticMNIST(poolSize, uint64(o.Seed))
	p := &samplePool{}
	for i := 0; i < poolSize; i++ {
		x := make([]float32, 28*28)
		src.Read(i, x)
		p.in = append(p.in, x)
	}
	n, err := forwardNet(o.Seed, p, 1, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < poolSize; i++ {
		n.Forward() // the data layer walks the pool in order
		p.ref = append(p.ref, append([]float32(nil), n.Blob("ip2").Data()...))
		if o.Selftest {
			p.ref[i][0] = math.Float32frombits(math.Float32bits(p.ref[i][0]) ^ 1)
		}
	}
	return p, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func newServer(seed int64) (*serve.Server, error) {
	return serve.New(serve.Config{
		Build: lenetBuilder(seed), SampleShape: []int{1, 28, 28}, Classes: classes,
		ScoreBlob: "ip2", Model: "lenet",
	})
}

// doOne sends pool sample idx through the server and reports whether the
// response was served and bit-correct.
func doOne(srv *serve.Server, pool *samplePool, idx int) bool {
	r := srv.Acquire()
	defer srv.Release(r)
	copy(r.Input(), pool.in[idx])
	if err := srv.Do(r); err != nil {
		return false
	}
	return sameBits(r.Scores(), pool.ref[idx])
}

// loadStats is what one load window produced. ops hold each request's
// latency as its caller felt it (from the due time in the open loop);
// sendMS is the latency of each correct response from its actual send.
type loadStats struct {
	ops    []op
	sendMS []float64
	failed int
	// lateMS is how late the open-loop generator fired each request.
	lateMS []float64
	// m is the host-speed record of the window.
	m *meter
	// wait is the timer every request sits out before any work is done
	// for it (op.wait).
	wait time.Duration
}

// reqSample is one finished request, kept per worker until the window
// ends.
type reqSample struct {
	// due and end are offsets from the window's start; the closed loop
	// has no schedule, so there a request is due when it is sent.
	due, end, fromSend time.Duration
	ok                 bool
}

func (l *loadStats) add(samples []reqSample) {
	for _, s := range samples {
		o := op{start: s.due, end: s.end, wait: l.wait}
		if s.ok {
			o.work = 1 // one image per request
			l.sendMS = append(l.sendMS, msOf(s.fromSend))
		} else {
			l.failed++ // no work and no latency: it misses every figure
		}
		l.ops = append(l.ops, o)
	}
}

// clock is the time source of the open-loop generator; tests drive it
// with a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// arrival is one scheduled request: when it is due (offset from the
// window's start) and which pool sample it carries.
type arrival struct {
	due    time.Duration
	sample int
}

// openSchedule is a Poisson process at `rate` per second conditioned on
// its count: exactly rate x window arrivals whose exponential gaps are
// scaled to fill the window. The offered load is then the same in every
// run and only its timing varies with the seed, which also picks each
// arrival's sample.
func openSchedule(seed int64, rate float64, window time.Duration) []arrival {
	r := rand.New(rand.NewSource(seed))
	n := int(rate * window.Seconds())
	at := make([]float64, n+1) // one gap more than arrivals: the last closes the window
	sum := 0.0
	for i := range at {
		sum += r.ExpFloat64()
		at[i] = sum
	}
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: time.Duration(at[i] / sum * float64(window)), sample: r.Intn(poolSize)}
	}
	return out
}

// generate is the open loop's single scheduler: it sleeps until each
// arrival is due and fires it, whatever became of the earlier ones. It
// returns how late each firing was, in ms.
func generate(clk clock, start time.Time, sched []arrival, fire func(a arrival, due time.Time)) []float64 {
	late := make([]float64, 0, len(sched))
	for _, a := range sched {
		due := start.Add(a.due)
		clk.SleepUntil(due)
		late = append(late, msOf(clk.Now().Sub(due)))
		fire(a, due)
	}
	return late
}

// openLoop fires the schedule at the server through a fixed team of
// workers; a request's latency counts from its due time, so a stall is
// charged to every request that queued behind it.
func openLoop(srv *serve.Server, pool *samplePool, sched []arrival, rec *recorder) *loadStats {
	type job struct {
		a   arrival
		due time.Time
		id  int64
	}
	jobs := make(chan job, len(sched)) // sized to the number of sends: the scheduler never blocks
	perWorker := make([][]reqSample, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				reqSpan := rec.openAt(0, j.id, "serve", "request", j.due)
				doSpan := rec.open(reqSpan, j.id, "serve", "do")
				sent := time.Now()
				ok := doOne(srv, pool, j.a.sample)
				end := time.Now()
				rec.close(doSpan)
				rec.close(reqSpan)
				perWorker[w] = append(perWorker[w], reqSample{due: j.due.Sub(start), end: end.Sub(start), fromSend: end.Sub(sent), ok: ok})
			}
		}()
	}
	m := newMeter(start, 1)
	stopMeter := m.every()
	var id int64
	late := generate(wallClock{}, start, sched, func(a arrival, due time.Time) {
		id++
		jobs <- job{a, due, id}
	})
	close(jobs)
	wg.Wait()
	stopMeter()
	// At a third of capacity nearly every request opens its own batch and
	// sits out the batcher's whole deadline before the forward pass starts.
	st := &loadStats{lateMS: late, m: m, wait: srv.Config().MaxDelay}
	for _, s := range perWorker {
		st.add(s)
	}
	return st
}

// closedLoop parks `callers` clients on the server: each sends its next
// request only when the previous one has returned.
func closedLoop(srv *serve.Server, pool *samplePool, seed int64, window time.Duration, rec *recorder) *loadStats {
	perCaller := make([][]reqSample, callers)
	var wg sync.WaitGroup
	start := time.Now()
	m := newMeter(start, 1)
	stopMeter := m.every()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1000 + int64(c)))
			for n := int64(0); time.Since(start) < window; n++ {
				sp := rec.open(0, int64(c)<<32|n, "serve", "do")
				sent := time.Now()
				ok := doOne(srv, pool, r.Intn(poolSize))
				end := time.Now()
				rec.close(sp)
				perCaller[c] = append(perCaller[c], reqSample{due: sent.Sub(start), end: end.Sub(start), fromSend: end.Sub(sent), ok: ok})
			}
		}()
	}
	wg.Wait()
	stopMeter()
	st := &loadStats{m: m}
	for _, s := range perCaller {
		st.add(s)
	}
	return st
}

// runServe is the whole life of one serving workload run.
func runServe(o runOpts) (*result, error) {
	open := o.Workload == "serve_lenet_open"
	res := newResult(o)
	pool, err := newSamplePool(o)
	if err != nil {
		return nil, err
	}

	// Set-up: assemble and start the server (its own warm-up pass
	// included) and answer the first request.
	startServer := func() (*serve.Server, bool, error) {
		srv, err := newServer(o.Seed)
		if err != nil {
			return nil, false, err
		}
		srv.Start()
		return srv, doOne(srv, pool, 0), nil
	}
	su := setups{threads: 1}
	var srv *serve.Server
	if err := su.first(func() (ok bool, err error) {
		srv, ok, err = startServer()
		return ok, err
	}); err != nil {
		return nil, err
	}
	defer srv.Close()

	// Warm-up and oracle: every pool sample once, one caller.
	warmFailed := 0
	for i := 0; i < poolSize; i++ {
		if !doOne(srv, pool, i) {
			warmFailed++
		}
	}

	load := func(window time.Duration, rec *recorder) *loadStats {
		if open {
			return openLoop(srv, pool, openSchedule(o.Seed, openRate, window), rec)
		}
		return closedLoop(srv, pool, o.Seed, window, rec)
	}
	moreSetups := func() error {
		err := su.rest(func() (bool, func(), error) {
			s, ok, err := startServer()
			if err != nil {
				return false, nil, err
			}
			return ok, s.Close, nil
		})
		res.phase("setup", len(su.secs), su.failed)
		res.phase("warmup", poolSize, warmFailed)
		return err
	}

	if !o.Trace {
		st := load(o.window(), nil)
		rss := peakRSSMiB()
		if err := moreSetups(); err != nil {
			return nil, err
		}
		res.phase("window", len(st.ops), st.failed)
		ws := summarizeWindow(st.ops, st.m)
		if open {
			// The offered load is fixed by the clock, not by host speed,
			// so throughput is what was served over the whole window,
			// unscaled.
			served, last := 0.0, time.Duration(0)
			for _, o := range st.ops {
				served += o.work
				last = max(last, o.end)
			}
			ws.rate = served / last.Seconds()
		}
		res.setEndToEnd(&su, ws, len(st.ops), rss)
		return res, nil
	}

	ref := load(o.window()/4, nil)
	before := srv.Stats()
	rec := newRecorder()
	st := load(o.window(), rec)
	after := srv.Stats()
	if err := moreSetups(); err != nil {
		return nil, err
	}
	res.phase("reference_window", len(ref.ops), ref.failed)
	res.phase("trace_window", len(st.ops), st.failed)

	batches := float64(after.Batches - before.Batches)
	meanBatch := float64(after.Samples-before.Samples) / batches
	res.set("serve.batch_mean", meanBatch, int(batches))
	res.set("serve.full_flush_share", float64(after.FullFlushes-before.FullFlushes)/batches, int(batches))
	submitted := float64(after.Received - before.Received + after.Rejected - before.Rejected)
	res.set("serve.rejected_share", float64(after.Rejected-before.Rejected)/submitted, int(submitted))
	var lat []float64
	for _, o := range st.ops {
		if o.work > 0 {
			lat = append(lat, msOf(o.end-o.start))
		}
	}
	res.set("serve.latency_p99_ms", percentile(lat, 99), len(lat))
	ws := summarizeWindow(st.ops, st.m)
	res.set("bench.trace_overhead_pct", 100*(ws.p50/summarizeWindow(ref.ops, ref.m).p50-1), len(lat))
	res.set("host.slowdown_x", ws.slowdown, len(lat))
	if open {
		res.set("bench.gen_late_p95_ms", percentile(st.lateMS, 95), len(st.lateMS))
	}

	fwd, err := standaloneMetrics(res, o, pool, meanBatch, open)
	if err != nil {
		return nil, err
	}
	res.set("serve.wait_ms_p50", median(st.sendMS)-fwd, len(st.sendMS))
	if err := wireMetrics(res, srv, pool); err != nil {
		return nil, err
	}
	if err := probe(res); err != nil {
		return nil, err
	}
	if res.TraceFile, err = rec.write(o.Workload, o.Seed); err != nil {
		return nil, err
	}
	res.fillPerLayer()
	return res, nil
}

// standaloneMetrics times a stand-alone forward-only net at batch 1, 8 and
// 32 and returns the forward time in ms interpolated at the observed mean
// batch. The net at the workload's characteristic batch (1 for the open
// loop, 32 for the saturated one) runs under the span-recording engine
// and yields the layers.fwd_us rows.
func standaloneMetrics(res *result, o runOpts, pool *samplePool, meanBatch float64, open bool) (float64, error) {
	sizes := []int{1, 8, 32}
	traced := 32
	if open {
		traced = 1
	}
	ms := make([]float64, len(sizes))
	for i, b := range sizes {
		const reps = 60
		n, err := forwardNet(o.Seed, pool, b, nil)
		if err != nil {
			return 0, err
		}
		ms[i] = msOf(medianTime(reps, func() { n.Forward() }))
		res.set(fmt.Sprintf("serve.forward_ms.b%d", b), ms[i], reps)
		if b != traced {
			continue
		}
		rec := newRecorder()
		n.SetEngine(&tracedEngine{Engine: n.Engine(), rec: rec})
		for r := 0; r < reps; r++ {
			n.Forward()
		}
		for name, ns := range meanDurByName(rec.spans, "layers", reps) {
			res.set("layers.fwd_us."+name[4:], ns/1e3, reps)
		}
		res.set("data.fill_us", meanDurByName(rec.spans, "data", reps)["fwd.fill"]/1e3, reps)
	}
	// Piecewise-linear in the batch size, clamped to the measured range.
	at := math.Min(math.Max(meanBatch, 1), 32)
	for i := 1; i < len(sizes); i++ {
		lo, hi := float64(sizes[i-1]), float64(sizes[i])
		if at <= hi {
			return ms[i-1] + (at-lo)/(hi-lo)*(ms[i]-ms[i-1]), nil
		}
	}
	return ms[len(ms)-1], nil
}

// wireMetrics compares the HTTP handler with a direct Do on an otherwise
// idle server (one caller, so both wait out the same batching deadline),
// and counts heap allocations per direct request.
func wireMetrics(res *result, srv *serve.Server, pool *samplePool) error {
	const reps = 200
	body := make([]byte, 4*len(pool.in[0]))
	for i, v := range pool.in[0] {
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(v))
	}
	h := srv.Handler()
	var viaHTTP, direct []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tensor", bytes.NewReader(body)))
		viaHTTP = append(viaHTTP, usOf(time.Since(t0)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("/v1/tensor answered %d: %s", w.Code, w.Body.String())
		}
		t0 = time.Now()
		if !doOne(srv, pool, 0) {
			return fmt.Errorf("direct Do failed on an idle server")
		}
		direct = append(direct, usOf(time.Since(t0)))
	}
	res.set("serve.http_overhead_us", median(viaHTTP)-median(direct), reps)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		doOne(srv, pool, i%poolSize)
	}
	runtime.ReadMemStats(&after)
	res.set("serve.allocs_per_req", float64(after.Mallocs-before.Mallocs)/reps, reps)
	return nil
}
