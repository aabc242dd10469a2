// Command tracecheck validates a Chrome trace-event JSON file produced by
// the span tracer (dnntrain/layerprof -trace) and prints a short
// summary. It exits non-zero when the file is not a well-formed trace, so
// CI can use it to smoke-test the tracing pipeline:
//
//	layerprof -zoo lenet -workers 2 -iters 2 -trace out.json && tracecheck out.json
package main

import (
	"flag"
	"fmt"
	"os"

	"coarsegrain/internal/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json> [...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	bad := false
	for _, path := range flag.Args() {
		st, err := trace.ValidateChromeTraceFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			bad = true
			continue
		}
		fmt.Printf("%s: ok — %d events (%d spans, %d metadata), %d threads, %.1f ms wall\n",
			path, st.Events, st.Complete, st.Meta, st.Threads, st.WallUS/1000)
	}
	if bad {
		os.Exit(1)
	}
}
