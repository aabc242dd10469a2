package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"coarsegrain/internal/bench"
	"coarsegrain/internal/blas"
	"coarsegrain/internal/par"
	"coarsegrain/internal/transport"
)

// lenetParams is LeNet's learnable element count: the gradient a cluster
// iteration exchanges and the size of the ordered reduce.
const lenetParams = 431080

// probeKernels measures the workload-independent rows — host roofs, blas
// kernels, par fork/join, transport primitives — by calling each
// package's public functions directly. Every traced run carries them, so
// a per-layer table is read against the roof of the host it ran on. Runs
// call it through probe, which tests that have no use for it replace.
var probe = probeKernels

func probeKernels(res *result) error {
	probeHost(res)
	probeBlas(res)
	probePar(res)
	return probeTransport(res)
}

// bestRate runs f (which does `work` units) for at least minTime per
// trial and returns the best units/second over trials: kernels are
// compared by what they can do, and the best trial is the one the
// scheduler disturbed least.
func bestRate(work float64, trials int, minTime time.Duration, f func()) float64 {
	f() // warm caches and scratch pools
	best := 0.0
	for t := 0; t < trials; t++ {
		reps := 0
		start := time.Now()
		for time.Since(start) < minTime {
			f()
			reps++
		}
		if r := work * float64(reps) / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

// medianTime returns the median duration of n calls of f.
func medianTime(n int, f func()) time.Duration {
	f()
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func randFloats(r *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = r.Float32()*2 - 1
	}
	return x
}

func probeHost(res *result) {
	P := hostP()
	res.set("host.nproc", float64(runtime.NumCPU()), 0)

	const calls = 200_000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < calls; i++ {
		sink += time.Since(time.Now())
	}
	res.set("host.timer_ns", float64(time.Since(t0))/calls, calls)
	_ = sink

	// Triad over three 32 MiB arrays, split across P goroutines.
	const n = 8 << 20
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	triad := func() {
		var wg sync.WaitGroup
		for w := 0; w < P; w++ {
			lo, hi := par.Chunk(n, P, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
	}
	res.set("host.stream_gbps", bestRate(12*n, 3, 60*time.Millisecond, triad)/1e9, 3)

	res.set("host.gemm_peak_gflops", gemmPeakGFLOPS(), 5)
}

// gemmPeakGFLOPS is the best blas.Gemm rate on a cache-resident 192^3,
// one thread: the compute roof, and what tells the AVX2 micro-kernel from
// the scalar one.
func gemmPeakGFLOPS() float64 {
	r := rand.New(rand.NewSource(11))
	const d = 192
	a, b, c := randFloats(r, d*d), randFloats(r, d*d), make([]float32, d*d)
	return bestRate(2*d*d*d, 5, 20*time.Millisecond, func() {
		blas.Gemm(blas.NoTrans, blas.NoTrans, d, d, d, 1, a, d, b, d, 0, c, d)
	}) / 1e9
}

func probeBlas(res *result) {
	r := rand.New(rand.NewSource(12))
	peak := res.Metrics["host.gemm_peak_gflops"]
	for _, netName := range []string{"mnist", "cifar"} {
		for _, s := range bench.NetGemmShapes(netName) {
			arows, acols := s.M, s.K
			if s.TransA == blas.Trans {
				arows, acols = s.K, s.M
			}
			brows, bcols := s.K, s.N
			if s.TransB == blas.Trans {
				brows, bcols = s.N, s.K
			}
			a, b, c := randFloats(r, arows*acols), randFloats(r, brows*bcols), make([]float32, s.M*s.N)
			g := bestRate(2*float64(s.M)*float64(s.N)*float64(s.K), 3, 15*time.Millisecond, func() {
				blas.Gemm(s.TransA, s.TransB, s.M, s.N, s.K, 1, a, acols, b, bcols, 0, c, s.N)
			}) / 1e9
			res.set("blas.gemm_gflops."+netName+"."+s.Name, g, 3)
			res.set("blas.gemm_roof_pct."+netName+"."+s.Name, 100*g/peak, 3)
		}
	}
	// conv2 of each net: channels, height=width, pad; kernel 5, stride 1.
	for _, cv := range []struct {
		net       string
		ch, hw, p int
	}{{"mnist", 20, 12, 0}, {"cifar", 32, 16, 2}} {
		out := blas.ConvOutSize(cv.hw, 5, cv.p, 1)
		im := randFloats(r, cv.ch*cv.hw*cv.hw)
		col := make([]float32, cv.ch*25*out*out)
		bytes := 4 * float64(len(im)+len(col))
		res.set("blas.im2col_gbps."+cv.net+".conv2", bestRate(bytes, 3, 10*time.Millisecond, func() {
			blas.Im2col(im, cv.ch, cv.hw, cv.hw, 5, 5, cv.p, cv.p, 1, 1, col)
		})/1e9, 3)
		res.set("blas.col2im_gbps."+cv.net+".conv2", bestRate(bytes, 3, 10*time.Millisecond, func() {
			blas.Col2im(col, cv.ch, cv.hw, cv.hw, 5, 5, cv.p, cv.p, 1, 1, im)
		})/1e9, 3)
	}
}

func probePar(res *result) {
	P := hostP()
	pool := par.NewPool(P)
	defer pool.Close()
	// A hundred calls per timed repetition, so the timer is not the cost.
	nsPerCall := func(f func()) float64 {
		return 1e9 / bestRate(100, 3, 10*time.Millisecond, func() {
			for i := 0; i < 100; i++ {
				f()
			}
		})
	}
	res.set("par.region_ns", nsPerCall(func() { pool.Region(func(int) {}) }), 3)
	res.set("par.for_ns", nsPerCall(func() { pool.For(P, func(int, int, int) {}) }), 3)

	priv := make([][]float32, P)
	for i := range priv {
		priv[i] = make([]float32, lenetParams)
	}
	dst := make([]float32, lenetParams)
	d := medianTime(50, func() {
		pool.OrderedSlices(lenetParams, func(lo, hi, rank int) {
			src := priv[rank][lo:hi]
			out := dst[lo:hi]
			for i, v := range src {
				out[i] += v
			}
		})
	})
	res.set("par.ordered_slices_us", usOf(d), 50)
}

// pingPong bounces a frame of `words` between ranks 0 and 1 of a group
// `rounds` times and returns each round trip's duration. The reply is one
// word, so a large frame measures one-way bandwidth.
func pingPong(t0, t1 transport.Transport, words, rounds int) ([]time.Duration, error) {
	payload := make([]float32, words)
	errc := make(chan error, 1)
	go func() {
		buf := make([]float32, words)
		ack := make([]float32, 1)
		for i := 0; i < rounds; i++ {
			if err := t1.Recv(0, transport.MakeTag(transport.KindGrad, i, 0, 0), buf); err != nil {
				errc <- err
				return
			}
			if err := t1.Send(0, transport.MakeTag(transport.KindGather, i, 0, 1), ack); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	ack := make([]float32, 1)
	out := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := t0.Send(1, transport.MakeTag(transport.KindGrad, i, 0, 0), payload); err != nil {
			return nil, err
		}
		if err := t0.Recv(1, transport.MakeTag(transport.KindGather, i, 0, 1), ack); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, <-errc
}

// dialGroup forms a k-rank TCP group over loopback inside this process:
// one coordinator and k-1 dialers, k-1 connections. The slice is indexed
// by rank.
func dialGroup(k int) ([]*transport.TCP, error) {
	coord, err := transport.NewCoordinator("127.0.0.1:0", k)
	if err != nil {
		return nil, err
	}
	type dialed struct {
		t   *transport.TCP
		err error
	}
	ch := make(chan dialed, k-1)
	for i := 1; i < k; i++ {
		go func() {
			t, err := transport.DialTCP(coord.Addr())
			ch <- dialed{t, err}
		}()
	}
	root, rootErr := coord.Wait()
	group := make([]*transport.TCP, k)
	group[0] = root
	err = rootErr
	for i := 1; i < k; i++ {
		d := <-ch
		if d.err != nil {
			err = d.err
			continue
		}
		group[d.t.Rank()] = d.t
	}
	if err != nil {
		closeGroup(group)
		return nil, fmt.Errorf("tcp rendezvous: %w", err)
	}
	return group, nil
}

func closeGroup(group []*transport.TCP) {
	for _, t := range group {
		if t != nil {
			t.Close()
		}
	}
}

func probeTransport(res *result) error {
	durs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d)
		}
		return out
	}
	local := transport.NewLocalGroup(2)
	rtt, err := pingPong(local[0], local[1], 1, 2000)
	local[0].Close()
	local[1].Close()
	if err != nil {
		return fmt.Errorf("local ping-pong: %w", err)
	}
	res.set("transport.local_rtt_us", median(durs(rtt))/1e3, len(rtt))

	tcp, err := dialGroup(2)
	if err != nil {
		return err
	}
	defer closeGroup(tcp)
	if rtt, err = pingPong(tcp[0], tcp[1], 1, 2000); err != nil {
		return fmt.Errorf("tcp ping-pong: %w", err)
	}
	res.set("transport.tcp_rtt_us", median(durs(rtt))/1e3, len(rtt))
	// Tags carry the iteration, so the bulk rounds use a fresh group.
	bulk, err := dialGroup(2)
	if err != nil {
		return err
	}
	defer closeGroup(bulk)
	if rtt, err = pingPong(bulk[0], bulk[1], lenetParams, 60); err != nil {
		return fmt.Errorf("tcp bulk: %w", err)
	}
	res.set("transport.tcp_gbps", 4*lenetParams/(median(durs(rtt))/1e9)/1e9, len(rtt))

	r := rand.New(rand.NewSource(13))
	src := randFloats(r, lenetParams)
	back := make([]float32, lenetParams)
	for _, name := range []string{"f16", "int8"} {
		codec, err := transport.CodecByName(name)
		if err != nil {
			return err
		}
		wire := make([]float32, codec.WireLen(lenetParams))
		res.set("transport.codec_encode_gbps."+name, bestRate(4*lenetParams, 3, 15*time.Millisecond, func() { codec.Encode(wire, src) })/1e9, 3)
		res.set("transport.codec_decode_gbps."+name, bestRate(4*lenetParams, 3, 15*time.Millisecond, func() { codec.Decode(back, wire) })/1e9, 3)
	}
	return nil
}
