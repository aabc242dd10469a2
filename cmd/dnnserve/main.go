// Command dnnserve is the production inference server: it loads a
// trained snapshot into a pool of forward-only replicas and serves
// predictions over HTTP, coalescing concurrent single requests into
// band-sized batches (SERVING.md).
//
//	dnntrain -zoo lenet -iters 500 -snapshot /tmp/lenet.cgdnn
//	dnnserve -zoo lenet -snapshot /tmp/lenet.cgdnn -addr :8080
//	curl -s localhost:8080/v1/info
//	dnnload  -addr localhost:8080 -concurrency 1,8,32
//
// SIGINT/SIGTERM drain in-flight requests before exiting; -addr :0
// picks a free port and -addr-file publishes the bound address for
// scripts.
package main

import (
	"context"
	"flag"
	"fmt"
	stdnet "net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/serve"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

func main() {
	var (
		model    = flag.String("model", "", "network prototxt file")
		zooName  = flag.String("zoo", "", "built-in network: lenet | cifar10-full")
		snapPath = flag.String("snapshot", "", "trained snapshot to serve (required)")
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file (for scripts)")
		maxBatch = flag.Int("max-batch", 32, "dynamic batcher's maximum batch (the serving band size)")
		maxDelay = flag.Duration("max-delay", 2*time.Millisecond, "deadline the oldest queued request waits for a batch to fill")
		replicas = flag.Int("replicas", 1, "pre-warmed forward-only net replicas sharing one weight copy")
		queue    = flag.Int("queue", 0, "admission queue depth (default 4*max-batch)")
		scores   = flag.String("scores", "", "score blob name (default: the loss layer's input)")
		shape    = flag.String("shape", "", "per-sample input shape as C,H,W (default: the model's dataset)")
		classes  = flag.Int("classes", 0, "output classes (default: the model's dataset)")
		seed     = flag.Uint64("seed", 1, "weight-init seed (overwritten by the snapshot; kept for reproducible builds)")
		traceOut = flag.String("trace", "", "write a Chrome trace of batch/request spans here on shutdown")
	)
	flag.Parse()
	if *snapPath == "" {
		fatal(fmt.Errorf("need -snapshot (train one with: dnntrain -zoo lenet -iters 500 -snapshot model.cgdnn)"))
	}

	// One sample is enough to learn the input shape and class count.
	m, err := zoo.Load(zoo.Ref{Zoo: *zooName, Model: *model, Seed: *seed, Samples: 1})
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		Model: m.Name, SampleShape: m.Source.SampleShape(), Classes: m.Source.Classes(), ScoreBlob: *scores,
		// The replica constructor sizes the net; the batch built here is irrelevant.
		Build:    func(src layers.Source) ([]net.LayerSpec, error) { return m.Specs(src, 0) },
		MaxBatch: *maxBatch, MaxDelay: *maxDelay, Replicas: *replicas, QueueDepth: *queue,
	}
	if *shape != "" {
		if cfg.SampleShape, err = parseShape(*shape); err != nil {
			fatal(err)
		}
	}
	if *classes > 0 {
		cfg.Classes = *classes
	}
	if cfg.ScoreBlob == "" {
		if cfg.ScoreBlob, err = m.ScoreBlob(); err != nil {
			fatal(err)
		}
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(*replicas)
		cfg.Tracer = tracer
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	if err := s.LoadSnapshot(*snapPath); err != nil {
		fatal(err)
	}
	s.Start()

	ln, err := stdnet.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("dnnserve: %s from %s on http://%s (max-batch %d, max-delay %v, replicas %d, queue %d)\n",
		cfg.Model, *snapPath, bound, cfg.MaxBatch, cfg.MaxDelay, cfg.Replicas, s.Config().QueueDepth)

	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("dnnserve: %v — draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dnnserve: shutdown:", err)
	}
	s.Close()
	st := s.Stats()
	fmt.Printf("dnnserve: served %d requests in %d batches (mean batch %.2f, mean latency %v, %d rejected)\n",
		st.Served, st.Batches, st.MeanBatch, st.MeanLatency, st.Rejected)
	if tracer.Enabled() {
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("dnnserve: wrote %d spans to %s\n", tracer.Len(), *traceOut)
	}
}

func parseShape(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	shape := make([]int, 0, len(parts))
	for _, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad -shape %q: want positive ints like 1,28,28", s)
		}
		shape = append(shape, d)
	}
	return shape, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnnserve:", err)
	os.Exit(1)
}
