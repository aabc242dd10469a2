package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
)

// BenchmarkOrderedReduce compares the two implementations of Algorithm
// 5's ordered gradient merge on a LeNet-sized parameter set (~431k
// elements): "sequential" is the historical rank-at-a-time
// Pool.Ordered fold (serial section O(|params|·P)); "slices" is the
// element-parallel Pool.OrderedSlices fold the engine's samples cut uses.
// "tree" is the A-red ablation (DESIGN.md): the unordered pairwise
// Pool.ReduceTree fold of the private copies (log P depth, last bits
// depend on P) followed by the root's fold into the parameters — the
// merge no engine runs, measured here so the ablation has a number.
//
// ns/op is wall time, which on a host with fewer CPUs than P cannot
// show the parallel win (the folds serialize). critpath-ns/op is the
// per-iteration maximum of any single worker's fold time — the merge
// latency a machine with >= P free CPUs would observe — and is the
// number PERFORMANCE.md's reduction-scaling table quotes.
func BenchmarkOrderedReduce(b *testing.B) {
	shapes := [][]int{
		{20, 1, 5, 5}, {20}, // conv1
		{50, 20, 5, 5}, {50}, // conv2
		{500, 800}, {500}, // ip1
		{10, 500}, {10}, // ip2
	}
	for _, workers := range []int{1, 2, 4, 8} {
		params := make([]*blob.Blob, len(shapes))
		offsets := make([]int, len(shapes)+1)
		for i, s := range shapes {
			params[i] = blob.New(s...)
			offsets[i+1] = offsets[i] + params[i].Count()
		}
		total := offsets[len(shapes)]
		r := rng.New(uint64(workers), 5)
		privs := make([][]*blob.Blob, workers)
		for w := range privs {
			privs[w] = make([]*blob.Blob, len(shapes))
			for i, s := range shapes {
				privs[w][i] = blob.NewDiffOnly(s...)
				for j := range privs[w][i].Diff() {
					privs[w][i].Diff()[j] = r.Range(-1, 1)
				}
			}
		}
		pool := par.NewPool(workers)

		b.Run(fmt.Sprintf("sequential/P=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.Ordered(func(rank int) {
					for pi, p := range params {
						p.AccumulateDiffFrom(privs[rank][pi])
					}
				})
			}
		})

		b.Run(fmt.Sprintf("slices/P=%d", workers), func(b *testing.B) {
			chunk := (total + workers - 1) / workers
			sliceNs := make([]int64, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.OrderedSlices(total, func(lo, hi, rank int) {
					start := time.Now()
					pg := privs[rank]
					for pi, p := range params {
						plo, phi := lo-offsets[pi], hi-offsets[pi]
						if plo < 0 {
							plo = 0
						}
						if c := p.Count(); phi > c {
							phi = c
						}
						if plo < phi {
							p.AccumulateDiffRange(pg[pi], plo, phi)
						}
					}
					atomic.AddInt64(&sliceNs[lo/chunk], int64(time.Since(start)))
				})
			}
			b.StopTimer()
			var crit int64
			for _, ns := range sliceNs {
				if ns > crit {
					crit = ns
				}
			}
			b.ReportMetric(float64(crit)/float64(b.N), "critpath-ns/op")
		})

		b.Run(fmt.Sprintf("tree/P=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.ReduceTree(func(dst, src int) {
					for pi := range params {
						privs[dst][pi].AccumulateDiffFrom(privs[src][pi])
					}
				})
				for pi, p := range params {
					p.AccumulateDiffFrom(privs[0][pi])
				}
			}
		})
		pool.Close()
	}
}
