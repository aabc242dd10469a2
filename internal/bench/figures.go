package bench

import (
	"fmt"
	"io"
	"math"

	"coarsegrain/internal/core"
	"coarsegrain/internal/simtime"
	"coarsegrain/internal/solver"
)

// PerLayerResult reproduces Figures 4 (MNIST) / 7 (CIFAR-10): absolute
// per-layer forward/backward times and relative weights for each thread
// count.
type PerLayerResult struct {
	Net     string
	Threads []int
	Layers  []string
	// FwdUS[t][layer] and BwdUS[t][layer] are times in microseconds under
	// t coarse-grain workers (t=1 is the measured serial execution; t>1
	// is modeled from it — DESIGN.md §4.1).
	FwdUS, BwdUS map[int]map[string]float64
	// MeasuredTotalUS[t] is the wall-clock mean iteration time of a real
	// t-worker run, filled only when Options.Measure was set.
	MeasuredTotalUS map[int]float64
}

// Total returns the summed layer time at a thread count.
func (r *PerLayerResult) Total(threads int) float64 {
	var t float64
	for _, l := range r.Layers {
		t += r.FwdUS[threads][l] + r.BwdUS[threads][l]
	}
	return t
}

// Render prints the result in the layout of the paper's stacked-bar
// figures: one block per thread count with absolute times and weights.
func (r *PerLayerResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s per-layer execution time (us); serial measured, multi-thread modeled ==\n", r.Net)
	for _, t := range r.Threads {
		total := r.Total(t)
		fmt.Fprintf(w, "\n-- %d thread(s), iteration total %.0f us --\n", t, total)
		fmt.Fprintf(w, "%-8s %12s %12s %8s\n", "layer", "fwd_us", "bwd_us", "weight")
		for _, l := range r.Layers {
			f, b := r.FwdUS[t][l], r.BwdUS[t][l]
			pct := 0.0
			if total > 0 {
				pct = (f + b) / total * 100
			}
			fmt.Fprintf(w, "%-8s %12.1f %12.1f %7.1f%%\n", l, f, b, pct)
		}
		if m, ok := r.MeasuredTotalUS[t]; ok {
			fmt.Fprintf(w, "measured wall-clock iteration: %.0f us\n", m)
		}
	}
}

// PerLayerTimes runs the Figure 4/7 experiment.
func PerLayerTimes(o Options) (*PerLayerResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	n, lt, err := MeasureSerial(o)
	if err != nil {
		return nil, err
	}
	models := ModelsFromNet(n, lt, o.Batch)
	res := &PerLayerResult{
		Net:             o.Net,
		Threads:         o.Threads,
		FwdUS:           map[int]map[string]float64{},
		BwdUS:           map[int]map[string]float64{},
		MeasuredTotalUS: map[int]float64{},
	}
	for _, m := range models {
		res.Layers = append(res.Layers, m.Name)
	}
	for _, t := range o.Threads {
		fwd, bwd, _ := simtime.DefaultMachine().NetworkTime(models, t)
		res.FwdUS[t] = fwd
		res.BwdUS[t] = bwd
		if o.Measure && t > 1 {
			eng := core.NewCoarse(t)
			mean, _, err := MeasureEngine(o, eng, false)
			eng.Close()
			if err != nil {
				return nil, err
			}
			res.MeasuredTotalUS[t] = float64(mean.Microseconds())
		}
	}
	return res, nil
}

// ScalabilityResult reproduces Figures 5 (MNIST) / 8 (CIFAR-10): per-layer
// speedup factors over the serial execution.
type ScalabilityResult struct {
	Net     string
	Threads []int
	Layers  []string
	// FwdSpeedup[t][layer], BwdSpeedup[t][layer].
	FwdSpeedup, BwdSpeedup map[int]map[string]float64
}

// Render prints the speedup clusters.
func (r *ScalabilityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s per-layer scalability (speedup vs serial, modeled) ==\n", r.Net)
	fmt.Fprintf(w, "%-8s", "layer")
	for _, t := range r.Threads {
		fmt.Fprintf(w, " %6dT-f %6dT-b", t, t)
	}
	fmt.Fprintln(w)
	for _, l := range r.Layers {
		fmt.Fprintf(w, "%-8s", l)
		for _, t := range r.Threads {
			fmt.Fprintf(w, " %8.2f %8.2f", r.FwdSpeedup[t][l], r.BwdSpeedup[t][l])
		}
		fmt.Fprintln(w)
	}
}

// PerLayerScalability runs the Figure 5/8 experiment.
func PerLayerScalability(o Options) (*ScalabilityResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	// Drop the 1-thread column (speedup of 1 by definition).
	pl, err := PerLayerTimes(o)
	if err != nil {
		return nil, err
	}
	res := &ScalabilityResult{
		Net:        pl.Net,
		Layers:     pl.Layers,
		FwdSpeedup: map[int]map[string]float64{},
		BwdSpeedup: map[int]map[string]float64{},
	}
	for _, t := range pl.Threads {
		if t == 1 {
			continue
		}
		res.Threads = append(res.Threads, t)
		fs := map[string]float64{}
		bs := map[string]float64{}
		for _, l := range pl.Layers {
			fs[l] = speedup(pl.FwdUS[1][l], pl.FwdUS[t][l])
			bs[l] = speedup(pl.BwdUS[1][l], pl.BwdUS[t][l])
		}
		res.FwdSpeedup[t] = fs
		res.BwdSpeedup[t] = bs
	}
	return res, nil
}

func speedup(serial, parallel float64) float64 {
	if serial == 0 {
		return 1 // a phase with no measurable serial time neither gains nor loses
	}
	if parallel <= 0 {
		return 0
	}
	return serial / parallel
}

// OverallResult reproduces Figures 6 (MNIST) / 9 (CIFAR-10): overall
// speedups of the coarse-grain parallelization at each thread count plus
// the plain-GPU and cuDNN-GPU configurations, and the per-layer GPU
// scalability panel.
type OverallResult struct {
	Net     string
	Threads []int
	// CoarseModeled[t] is the modeled overall speedup at t workers.
	CoarseModeled map[int]float64
	// CoarseMeasured[t] is the wall-clock overall speedup (Measure mode).
	CoarseMeasured map[int]float64
	// FineMeasured / FineLoweredMeasured are the wall-clock speedups of
	// the fine-grain goroutine engine on the direct and on the lowered
	// convolution (plain-GPU / cuDNN analogues) on this host (Measure
	// mode).
	FineMeasured, FineLoweredMeasured float64
	// PlainGPU / CuDNNGPU are the modeled overall GPU speedups under the
	// paper-calibrated per-layer profiles.
	PlainGPU, CuDNNGPU float64
	// GPULayers is the per-layer GPU panel: layer -> {plain, cudnn} x
	// {fwd, bwd} speedups (the calibration constants, listed for the
	// figure's right side).
	GPULayers map[string][4]float64
	// LayerOrder preserves network order for rendering.
	LayerOrder []string
}

// Render prints the overall comparison.
func (r *OverallResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s overall speedup vs serial ==\n", r.Net)
	for _, t := range r.Threads {
		line := fmt.Sprintf("coarse %2d threads: %5.2fx (modeled)", t, r.CoarseModeled[t])
		if m, ok := r.CoarseMeasured[t]; ok {
			line += fmt.Sprintf("   %5.2fx (measured)", m)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "plain-GPU (calibrated): %5.2fx\n", r.PlainGPU)
	fmt.Fprintf(w, "cuDNN-GPU (calibrated): %5.2fx\n", r.CuDNNGPU)
	if r.FineMeasured > 0 {
		fmt.Fprintf(w, "fine engine (this host): %5.2fx measured\n", r.FineMeasured)
	}
	if r.FineLoweredMeasured > 0 {
		fmt.Fprintf(w, "fine engine, lowered conv (this host): %5.2fx measured\n", r.FineLoweredMeasured)
	}
	fmt.Fprintln(w, "\n-- GPU layer scalability (calibrated from the paper) --")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s\n", "layer", "plain-f", "plain-b", "cudnn-f", "cudnn-b")
	for _, l := range r.LayerOrder {
		v, ok := r.GPULayers[l]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-8s %9.2fx %9.2fx %9.2fx %9.2fx\n", l, v[0], v[1], v[2], v[3])
	}
}

// Overall runs the Figure 6/9 experiment.
func Overall(o Options) (*OverallResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	n, lt, err := MeasureSerial(o)
	if err != nil {
		return nil, err
	}
	models := ModelsFromNet(n, lt, o.Batch)
	plain, cudnn := GPUProfilesFor(o.Net)
	res := &OverallResult{
		Net:            o.Net,
		Threads:        o.Threads,
		CoarseModeled:  map[int]float64{},
		CoarseMeasured: map[int]float64{},
		PlainGPU:       simtime.GPUSpeedup(models, plain),
		CuDNNGPU:       simtime.GPUSpeedup(models, cudnn),
		GPULayers:      map[string][4]float64{},
	}
	for _, m := range models {
		res.LayerOrder = append(res.LayerOrder, m.Name)
		p, pok := plain[m.Name]
		c, cok := cudnn[m.Name]
		if pok || cok {
			res.GPULayers[m.Name] = [4]float64{p.Fwd, p.Bwd, c.Fwd, c.Bwd}
		}
	}
	var serialMean float64
	if o.Measure {
		sm, _, err := MeasureEngine(o, core.NewSequential(), false)
		if err != nil {
			return nil, err
		}
		serialMean = float64(sm.Microseconds())
	}
	for _, t := range o.Threads {
		res.CoarseModeled[t] = simtime.DefaultMachine().Speedup(models, t)
		if o.Measure && t > 1 {
			eng := core.NewCoarse(t)
			mean, _, err := MeasureEngine(o, eng, false)
			eng.Close()
			if err != nil {
				return nil, err
			}
			res.CoarseMeasured[t] = serialMean / float64(mean.Microseconds())
		}
	}
	if o.Measure {
		// Fine on the direct net, then on the lowered one.
		for i, dst := range []*float64{&res.FineMeasured, &res.FineLoweredMeasured} {
			fe := core.NewFine(maxInt(o.Threads))
			fm, _, err := MeasureEngine(o, fe, i == 1)
			fe.Close()
			if err != nil {
				return nil, err
			}
			*dst = serialMean / float64(fm.Microseconds())
		}
	}
	return res, nil
}

func maxInt(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// MemoryResult reproduces the §3.2.1 memory-overhead analysis: the extra
// per-thread privatized gradient storage versus the network's total
// allocation.
type MemoryResult struct {
	Net string
	// NetBytes is the memory of all blobs and parameters.
	NetBytes int64
	// ScratchBytes[t] is the coarse engine's privatization arena after a
	// t-worker backward pass.
	ScratchBytes map[int]int64
	Threads      []int
}

// Render prints the comparison with the paper's reported numbers.
func (r *MemoryResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s privatization memory overhead (paper §3.2.1) ==\n", r.Net)
	fmt.Fprintf(w, "network allocation: %.1f MB\n", float64(r.NetBytes)/(1<<20))
	for _, t := range r.Threads {
		sb := r.ScratchBytes[t]
		fmt.Fprintf(w, "%2d threads: scratch %7.1f KB (%.2f%% of network)\n",
			t, float64(sb)/1024, float64(sb)/float64(r.NetBytes)*100)
	}
}

// Memory runs the memory-overhead experiment.
func Memory(o Options) (*MemoryResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	res := &MemoryResult{Net: o.Net, Threads: o.Threads, ScratchBytes: map[int]int64{}}
	for _, t := range o.Threads {
		eng := core.NewCoarse(t)
		n, err := buildNet(o, eng, false)
		if err != nil {
			eng.Close()
			return nil, err
		}
		n.ZeroParamDiffs()
		n.ForwardBackward()
		res.ScratchBytes[t] = eng.ScratchBytes()
		if res.NetBytes == 0 {
			res.NetBytes = n.MemoryBytes()
		}
		eng.Close()
	}
	return res, nil
}

// ConvergenceResult reproduces the convergence-invariance claim: the loss
// trace of the coarse parallelization versus the sequential trace, per
// worker count, plus the fixed-worker-count determinism check.
type ConvergenceResult struct {
	Net        string
	Iterations int
	Workers    []int
	// SeqTrace is the sequential loss trace.
	SeqTrace []float64
	// MaxRelDeviation[w] is max_i |loss_w(i) - loss_seq(i)| / loss_seq(i).
	MaxRelDeviation map[int]float64
	// Deterministic[w] reports whether two runs at w workers were
	// bit-identical.
	Deterministic map[int]bool
}

// Render prints the invariance summary.
func (r *ConvergenceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s convergence invariance over %d iterations ==\n", r.Net, r.Iterations)
	fmt.Fprintf(w, "sequential final loss: %.6f\n", r.SeqTrace[len(r.SeqTrace)-1])
	for _, wk := range r.Workers {
		fmt.Fprintf(w, "%2d workers: max relative loss deviation %.2e, bitwise deterministic: %v\n",
			wk, r.MaxRelDeviation[wk], r.Deterministic[wk])
	}
}

// Convergence runs the convergence-invariance experiment over iters
// training iterations.
func Convergence(o Options, iters int) (*ConvergenceResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	if iters <= 0 {
		iters = 20
	}
	train := func(eng core.Engine) ([]float64, error) {
		n, err := buildNet(o, eng, false)
		if err != nil {
			return nil, err
		}
		s, err := solver.New(o.model.Solver, n)
		if err != nil {
			return nil, err
		}
		return s.Step(iters), nil
	}
	seq, err := train(core.NewSequential())
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{
		Net:             o.Net,
		Iterations:      iters,
		SeqTrace:        seq,
		MaxRelDeviation: map[int]float64{},
		Deterministic:   map[int]bool{},
	}
	for _, t := range o.Threads {
		if t == 1 {
			continue
		}
		res.Workers = append(res.Workers, t)
		e1 := core.NewCoarse(t)
		a, err := train(e1)
		e1.Close()
		if err != nil {
			return nil, err
		}
		e2 := core.NewCoarse(t)
		b, err := train(e2)
		e2.Close()
		if err != nil {
			return nil, err
		}
		var maxRel float64
		det := true
		for i := range seq {
			rel := math.Abs(a[i]-seq[i]) / math.Max(math.Abs(seq[i]), 1e-12)
			if rel > maxRel {
				maxRel = rel
			}
			if a[i] != b[i] {
				det = false
			}
		}
		res.MaxRelDeviation[t] = maxRel
		res.Deterministic[t] = det
	}
	return res, nil
}

// AblationResult covers the two design-choice ablations DESIGN.md calls
// out: the reduction strategy (ordered vs tree) and the loop-coalescing
// transformation (Algorithm 4's civ loop vs parallelizing only the sample
// loop).
type AblationResult struct {
	Net     string
	Threads []int
	// ReductionOrderedUS / ReductionTreeUS are modeled merge costs of the
	// largest parameterized layer at each thread count.
	ReductionOrderedUS, ReductionTreeUS map[int]float64
	// CoalescedSpeedup / UncoalescedSpeedup are modeled overall speedups
	// with and without the coalescing transformation.
	CoalescedSpeedup, UncoalescedSpeedup map[int]float64
}

// Render prints both ablations.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ablations ==\n", r.Net)
	fmt.Fprintln(w, "-- reduction strategy (modeled merge cost of largest layer, us) --")
	for _, t := range r.Threads {
		fmt.Fprintf(w, "%2d workers: ordered %8.1f   tree %8.1f\n",
			t, r.ReductionOrderedUS[t], r.ReductionTreeUS[t])
	}
	fmt.Fprintln(w, "-- loop coalescing (modeled overall speedup) --")
	for _, t := range r.Threads {
		fmt.Fprintf(w, "%2d workers: coalesced %5.2fx   sample-loop only %5.2fx\n",
			t, r.CoalescedSpeedup[t], r.UncoalescedSpeedup[t])
	}
}

// Ablation runs both ablations.
func Ablation(o Options) (*AblationResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	n, lt, err := MeasureSerial(o)
	if err != nil {
		return nil, err
	}
	models := ModelsFromNet(n, lt, o.Batch)
	// Largest parameterized layer drives the reduction cost.
	largest := 0
	for _, m := range models {
		if m.ParamElems > largest {
			largest = m.ParamElems
		}
	}
	// Uncoalesced variant: every parallel phase distributes at most one
	// batch sample per iteration (extent clamped to the batch size).
	unco := make([]simtime.LayerModel, len(models))
	copy(unco, models)
	for i := range unco {
		if unco[i].FwdExtent > o.Batch {
			unco[i].FwdExtent = o.Batch
		}
		if unco[i].BwdExtent > o.Batch {
			unco[i].BwdExtent = o.Batch
		}
	}
	res := &AblationResult{
		Net:                o.Net,
		Threads:            o.Threads,
		ReductionOrderedUS: map[int]float64{},
		ReductionTreeUS:    map[int]float64{},
		CoalescedSpeedup:   map[int]float64{},
		UncoalescedSpeedup: map[int]float64{},
	}
	mach := simtime.DefaultMachine()
	perElem := mach.MergePerElemNS / 1000
	for _, t := range o.Threads {
		res.ReductionOrderedUS[t] = float64(largest) * float64(t) * perElem
		res.ReductionTreeUS[t] = float64(largest) * math.Ceil(math.Log2(float64(t))) * perElem
		res.CoalescedSpeedup[t] = mach.Speedup(models, t)
		res.UncoalescedSpeedup[t] = mach.Speedup(unco, t)
	}
	return res, nil
}
