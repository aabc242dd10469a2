// Package dist is the distributed data-parallel trainer: k full model
// replicas — one per transport rank, in one process or many — train in
// lockstep on disjoint shards of every global batch, and a deterministic
// gradient reduction keeps the k-replica run bit-identical to the
// reference ordered fold at every replica count, tree shape and
// transport (DISTRIBUTED.md). It is the repository's only cross-replica
// reduction; the coarse engine's ordered band merge is the within-net
// one.
//
// # The reduction and its determinism argument
//
// Floating-point addition is not associative, so "sum the gradients" is
// only reproducible if every element is accumulated in a fixed order.
// The reference fixes one: run ForwardBackward on every shard, add the
// shard gradients into rank 0's in ascending rank order, scale by 1/k,
// update. par.Pool.OrderedSlices showed such a fold can be element-sliced
// across workers without changing a bit, because each element still
// sees ranks 0,1,…,k-1 in order. Package dist reuses exactly that shape
// as an ordered reduce-scatter: every parameter's element space is
// sliced across ranks with par.Chunk, each slice owner receives the k-1
// peer contributions for its slice and folds them — own gradient
// included — in ascending rank order, then scales by 1/k. All arithmetic
// happens at owners; the reduction Tree then only moves finished bytes
// (reduced slices up to the root, updated weights down), so the tree's
// fan-out affects latency, never values. The root applies the solver
// update to the full assembled gradient and broadcasts the new weights
// bitwise.
//
// Consequences, asserted by this package's tests: a k-replica dist run
// is bit-identical to the reference fold with k shards (same fold, same
// scale, same update); a 1-replica dist run is bit-identical to plain
// solver.Step; and Local vs TCP vs any fan-out all produce the same
// snapshots to the last bit.
//
// Options.GradWire changes only how a contribution crosses the wire
// (f16, or int8 with error feedback): it is encoded once at its origin
// and decoded once at its slice owner, and the fold, the tree and the
// determinism argument are unchanged.
//
// # Communication/compute overlap
//
// Backward visits layers in reverse order, and a layer's parameter
// gradients are final as soon as its backward completes. A
// net.SetBackwardLayerHook fires right there, on the driving goroutine,
// and ships the finished parameters' gradient slices to their owners
// while the engine is already computing layer k-1 — transport sends are
// asynchronous, so the scatter rides inside the backward wall time
// instead of after it. PhaseComm trace spans make the overlap visible
// next to the backward spans (OBSERVABILITY.md).
//
// # Fault handling
//
// Links are reliable and FIFO, so a Send either delivers its frame once
// or fails for good, and every send error is returned as-is. A failed
// rank — a crash, a hang, a partition — surfaces as
// transport.ErrPeerDown (or unwinds via transport.Interrupt). Such
// failures are handled one level up, in RunElastic
// (elastic.go), the one loop that drives a Node to its target
// iteration. In the rigid case, where the membership may not change, it
// returns the error at once. Otherwise it supervises: it detects
// failures with heartbeats, fences the group at the last completed
// iteration, and re-forms a smaller (or, on rejoin, larger) membership
// that resumes from the fenced checkpoint.
//
// A Node is built at a membership epoch and a start iteration so a
// re-formed Node is indistinguishable from one freshly built for a clean
// run resumed at that iteration. That is the whole determinism argument
// for degraded continuation.
package dist

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"coarsegrain/internal/net"
	"coarsegrain/internal/par"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
)

// Options configures a Node.
type Options struct {
	// Fanout is the reduction tree's fan-out (default 2).
	Fanout int
	// GradWire names the gradient wire format: "f32" (default,
	// identity), "f16" (packed binary16) or "int8" (grouped max-abs
	// quantization) — see transport.CodecByName. Lossy formats carry a
	// per-rank error-feedback residual so the quantization error feeds
	// back into the next iteration's gradient instead of accumulating as
	// bias. Only gradient contributions are encoded; reduced slices,
	// losses and weights always cross the wire as raw f32.
	GradWire string
}

func (o Options) withDefaults() Options {
	if o.Fanout < 1 {
		o.Fanout = 2
	}
	return o
}

// Node is one rank of a distributed training group. The root (rank 0)
// owns the solver and the authoritative weights; workers compute shard
// gradients and route bytes. Every rank calls Step with the same
// iteration count — the protocol is lockstep.
type Node struct {
	tr      transport.Transport
	network *net.Net
	sol     *solver.Solver // root only
	tree    Tree
	rank    int
	size    int
	opts    Options
	tracer  *trace.Tracer

	// paramOrder is the order gradients become final during backward
	// (net.BackwardParamOrder) — the canonical scatter/fold/gather
	// sequence every rank iterates identically.
	paramOrder []int
	scale      float32
	epoch      int
	iter       int

	// waiting is the rank this node is currently blocked on in a
	// data-plane Recv (-1 when not blocked). The elastic supervisor's
	// straggler detection reads it — and ships it in heartbeat replies —
	// to follow the wait chain to the rank that is actually slow.
	waiting atomic.Int64

	parent   int
	children []int
	pre      []int   // own subtree, preorder
	childPre [][]int // each child's subtree, preorder

	// sent tracks which parameters this iteration's hook has already
	// scattered; accBuf/recvBuf are reusable max-chunk scratch slices.
	sent    []bool
	accBuf  []float32
	recvBuf []float32
	hookErr error

	// codec is the gradient wire format, nil for f32: the identity
	// format takes the pre-codec fast path so the default configuration
	// stays bit-for-bit and allocation-for-allocation what it always
	// was. When set, corrBuf/decBuf/wireBuf/wireRecvBuf are the
	// preallocated encode/decode scratch and residual holds the
	// error-feedback state: residual[pi][i] is the quantization error of
	// parameter pi's element i from the last time it was encoded, added
	// back into the gradient before the next encode. Residuals start at
	// zero and reset whenever a Node is rebuilt (resume, fence, rejoin)
	// — exactly the state a clean run resumed at that iteration would
	// have, which keeps elastic recovery bit-identical under lossy
	// codecs too.
	codec       transport.Codec
	residual    [][]float32
	corrBuf     []float32
	decBuf      []float32
	wireBuf     []float32
	wireRecvBuf []float32
}

// NewRoot creates the coordinator node (transport rank 0): it owns the
// solver stepping n's weights, assembles the reduced global gradient
// and broadcasts updates. n must be built exactly like every worker's
// net (same seed, same architecture) on shard 0 of the global batch.
func NewRoot(t transport.Transport, n *net.Net, cfg solver.Config, opts Options) (*Node, error) {
	return newNode(t, n, &cfg, opts, 0, 0)
}

// NewWorker creates a worker node (transport rank ≥ 1): it computes its
// shard's gradients, participates in the ordered reduce-scatter, routes
// tree traffic and receives weight broadcasts. Workers have no solver.
func NewWorker(t transport.Transport, n *net.Net, opts Options) (*Node, error) {
	return newNode(t, n, nil, opts, 0, 0)
}

// newNode builds the root when cfg is non-nil, else a worker. epoch is
// the membership epoch stamped into every tag (0 for a group that has
// never fenced): the elastic supervisor bumps it at each fence so stale
// frames from an abandoned membership can never alias the new one's.
// startIter is the iteration numbering starts at (0 for a fresh run): a
// node resuming from a fenced checkpoint at iteration F is built at F so
// its tags, and therefore its protocol state, match a clean run resumed
// there.
func newNode(t transport.Transport, n *net.Net, cfg *solver.Config, opts Options, epoch, startIter int) (*Node, error) {
	if root := t.Rank() == 0; root && cfg == nil {
		return nil, fmt.Errorf("dist: transport rank 0 is the root; use NewRoot")
	} else if !root && cfg != nil {
		return nil, fmt.Errorf("dist: root must hold transport rank 0, got %d", t.Rank())
	}
	opts = opts.withDefaults()
	size := t.Size()
	if size < 1 {
		return nil, fmt.Errorf("dist: transport group size %d", size)
	}
	if epoch < 0 || epoch > transport.MaxEpoch {
		return nil, fmt.Errorf("dist: membership epoch %d out of range [0,%d]", epoch, transport.MaxEpoch)
	}
	if startIter < 0 || startIter > transport.MaxIter {
		return nil, fmt.Errorf("dist: start iteration %d out of range [0,%d]", startIter, transport.MaxIter)
	}
	var s *solver.Solver
	if cfg != nil {
		var err error
		if s, err = solver.New(*cfg, n); err != nil {
			return nil, err
		}
	}
	params := n.Params()
	if len(params) == 0 {
		return nil, fmt.Errorf("dist: net has no parameters")
	}
	if len(params) >= 1<<14 {
		return nil, fmt.Errorf("dist: %d parameters exceed the tag's param field", len(params))
	}
	tree := NewTree(size, opts.Fanout)
	nd := &Node{
		tr: t, network: n, sol: s, tree: tree, rank: t.Rank(), size: size,
		opts: opts, tracer: n.Tracer(),
		paramOrder: n.BackwardParamOrder(),
		scale:      1 / float32(size),
		epoch:      epoch,
		iter:       startIter,
		parent:     tree.Parent(t.Rank()),
		children:   tree.Children(t.Rank()),
		pre:        tree.Preorder(t.Rank()),
		sent:       make([]bool, len(params)),
	}
	nd.waiting.Store(-1)
	for _, c := range nd.children {
		nd.childPre = append(nd.childPre, tree.Preorder(c))
	}
	maxChunk := 0
	for _, p := range params {
		if lo, hi := par.Chunk(p.Count(), size, 0); hi-lo > maxChunk {
			maxChunk = hi - lo
		}
	}
	nd.accBuf = make([]float32, maxChunk)
	nd.recvBuf = make([]float32, maxChunk)

	codec, err := transport.CodecByName(opts.GradWire)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if _, identity := codec.(transport.F32Codec); !identity {
		nd.codec = codec
		nd.residual = make([][]float32, len(params))
		for pi, p := range params {
			nd.residual[pi] = make([]float32, p.Count())
		}
		nd.corrBuf = make([]float32, maxChunk)
		nd.decBuf = make([]float32, maxChunk)
		nd.wireBuf = make([]float32, codec.WireLen(maxChunk))
		nd.wireRecvBuf = make([]float32, codec.WireLen(maxChunk))
	}
	return nd, nil
}

// Rank returns this node's rank.
func (nd *Node) Rank() int { return nd.rank }

// Size returns the group size.
func (nd *Node) Size() int { return nd.size }

// Tree returns the reduction topology.
func (nd *Node) Tree() Tree { return nd.tree }

// Iter returns the completed iteration count.
func (nd *Node) Iter() int { return nd.iter }

// Epoch returns the membership epoch this node's tags carry.
func (nd *Node) Epoch() int { return nd.epoch }

// WaitingOn returns the rank this node is currently blocked on in a
// data-plane Recv, or -1. Safe to call from another goroutine.
func (nd *Node) WaitingOn() int { return int(nd.waiting.Load()) }

// tag packs a label for the current (epoch, iteration).
func (nd *Node) tag(k transport.Kind, param, origin int) transport.Tag {
	return transport.MakeTagE(k, nd.epoch, nd.iter, param, origin)
}

// recv wraps the transport Recv with waiting-rank bookkeeping so the
// elastic supervisor can see who the lockstep protocol is blocked on.
func (nd *Node) recv(from int, tag transport.Tag, buf []float32) error {
	nd.waiting.Store(int64(from))
	err := nd.tr.Recv(from, tag, buf)
	nd.waiting.Store(-1)
	return err
}

// Net returns the node's network.
func (nd *Node) Net() *net.Net { return nd.network }

// Solver returns the root's solver (nil on workers) — the handle
// dnncluster snapshots through, exactly like dnntrain.
func (nd *Node) Solver() *solver.Solver { return nd.sol }

// Step runs iters lockstep iterations. The root returns the global
// losses (the rank-ordered mean of shard losses); workers return their
// local shard losses. Every rank of the group must call Step with the
// same iters. A transport error aborts mid-run with the losses completed
// so far — fail-loud, never silently desynchronized.
func (nd *Node) Step(iters int) ([]float64, error) {
	losses := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		loss, err := nd.step()
		if err != nil {
			return losses, err
		}
		losses = append(losses, loss)
	}
	return losses, nil
}

// step runs one lockstep iteration: scatter (overlapped with backward),
// fold, loss reduce, tree gather, root update, tree broadcast.
func (nd *Node) step() (float64, error) {
	nd.network.ZeroParamDiffs()

	// A single-rank group is plain solver stepping: no communication,
	// no 1/k scaling — bit-identical to solver.Step by construction.
	if nd.size == 1 {
		loss := nd.network.ForwardBackward()
		nd.sol.UpdateFromGradients()
		nd.iter++
		return loss, nil
	}

	// Compute + scatter. The hook fires after each layer's backward
	// with its finalized parameter range; slices ship to their owners
	// while the engine is still on earlier layers.
	for i := range nd.sent {
		nd.sent[i] = false
	}
	nd.hookErr = nil
	nd.network.SetBackwardLayerHook(func(lo, hi int) {
		if nd.hookErr != nil {
			return
		}
		for p := lo; p < hi; p++ {
			if err := nd.scatterParam(p); err != nil {
				nd.hookErr = err
				return
			}
		}
	})
	loss := nd.network.ForwardBackward()
	nd.network.SetBackwardLayerHook(nil)
	if nd.hookErr != nil {
		return 0, nd.hookErr
	}
	// Whatever the hook did not cover ships now, in the same canonical
	// order.
	for _, p := range nd.paramOrder {
		if !nd.sent[p] {
			if err := nd.scatterParam(p); err != nil {
				return 0, err
			}
		}
	}

	// Workers report their shard loss to the root (as raw float64 bits,
	// so the global mean is computed from exact values). Data links are
	// strict FIFO, so the loss frame queues behind this rank's gradient
	// slices to the root, all sent during the scatter above.
	if nd.rank != 0 {
		lossBits := encodeF64(loss)
		tag := nd.tag(transport.KindLoss, 0, nd.rank)
		if err := nd.tr.Send(0, tag, lossBits[:]); err != nil {
			return 0, err
		}
	}
	foldStart := nd.now()
	folded := 0
	for _, p := range nd.paramOrder {
		n, err := nd.foldParam(p)
		if err != nil {
			return 0, err
		}
		folded += n
	}
	nd.span("fold", -1, folded, foldStart)

	// Global loss at the root: the rank-ordered sum of shard losses,
	// divided by k.
	globalLoss := loss
	if nd.rank == 0 {
		sum := loss
		var bits [2]float32
		for r := 1; r < nd.size; r++ {
			tag := nd.tag(transport.KindLoss, 0, r)
			if err := nd.recv(r, tag, bits[:]); err != nil {
				return 0, fmt.Errorf("dist: loss from rank %d: %w", r, err)
			}
			sum += decodeF64(bits)
		}
		globalLoss = sum / float64(nd.size)
	}

	// Route the reduced slices up the tree to the root, update there,
	// broadcast the new weights down the tree.
	if err := nd.gather(); err != nil {
		return 0, err
	}
	if nd.rank == 0 {
		nd.sol.UpdateFromGradients()
	}
	if err := nd.treeBcast(transport.KindBcast); err != nil {
		return 0, err
	}
	nd.iter++
	return globalLoss, nil
}

// scatterParam ships parameter pi's gradient slices point-to-point to
// their owners (asynchronously; the transport queues them). Safe to call
// from the backward hook: it runs on the driving goroutine between
// engine calls, so the trace single-writer contract holds.
func (nd *Node) scatterParam(pi int) error {
	nd.sent[pi] = true
	p := nd.network.Params()[pi]
	diff := p.Diff()
	start := nd.now()
	shipped := 0
	for o := 0; o < nd.size; o++ {
		if o == nd.rank {
			continue
		}
		lo, hi := par.Chunk(p.Count(), nd.size, o)
		if lo == hi {
			continue
		}
		payload := diff[lo:hi]
		if nd.codec != nil {
			payload = nd.encodeChunk(pi, lo, hi, diff)
		}
		tag := nd.tag(transport.KindGrad, pi, nd.rank)
		if err := nd.tr.Send(o, tag, payload); err != nil {
			return err
		}
		shipped += hi - lo
	}
	nd.span("scatter", -1, shipped, start)
	return nil
}

// encodeChunk applies error feedback and encodes parameter pi's
// [lo:hi) gradient slice into the preallocated wire buffer, returning
// the encoded words. The residual update is the textbook EF step:
// corrected = gradient + residual; wire = encode(corrected);
// residual' = corrected − decode(wire). What the owner folds is
// decode(wire), so the error this rank failed to transmit this
// iteration is exactly what it adds back next iteration. The buffer is
// valid until the next encodeChunk call — callers hand it straight to
// the transport, which copies on enqueue.
func (nd *Node) encodeChunk(pi, lo, hi int, diff []float32) []float32 {
	start := nd.now()
	n := hi - lo
	res := nd.residual[pi][lo:hi]
	corr := nd.corrBuf[:n]
	for i := 0; i < n; i++ {
		corr[i] = diff[lo+i] + res[i]
	}
	wire := nd.wireBuf[:nd.codec.WireLen(n)]
	nd.codec.Encode(wire, corr)
	dec := nd.decBuf[:n]
	nd.codec.Decode(dec, wire)
	for i := 0; i < n; i++ {
		res[i] = corr[i] - dec[i]
	}
	nd.span("encode", -1, n, start)
	return wire
}

// decodeInto decodes an encoded gradient frame into dst, recording the
// decode cost as a PhaseComm sub-span beside the wire time it bought.
func (nd *Node) decodeInto(dst, wire []float32, from int) {
	start := nd.now()
	nd.codec.Decode(dst, wire)
	nd.span("decode", from, len(dst), start)
}

// foldParam reduces this rank's slice of parameter pi: contributions
// from ranks 0..size-1 are folded in ascending rank order — the exact
// per-element accumulation order of the reference fold and of
// par.Pool.OrderedSlices — then scaled by 1/k, in place. Returns the
// slice's element count.
func (nd *Node) foldParam(pi int) (int, error) {
	p := nd.network.Params()[pi]
	lo, hi := par.Chunk(p.Count(), nd.size, nd.rank)
	if lo == hi {
		return 0, nil
	}
	n := hi - lo
	acc := nd.accBuf[:n]
	tmp := nd.recvBuf[:n]
	diff := p.Diff()
	for r := 0; r < nd.size; r++ {
		src := tmp
		switch {
		case r == nd.rank:
			// The own contribution never crosses the wire and is folded
			// uncompressed under every codec.
			src = diff[lo:hi]
		case nd.codec != nil:
			wire := nd.wireRecvBuf[:nd.codec.WireLen(n)]
			tag := nd.tag(transport.KindGrad, pi, r)
			if err := nd.recv(r, tag, wire); err != nil {
				return 0, fmt.Errorf("dist: gradient slice of param %d from rank %d: %w", pi, r, err)
			}
			nd.decodeInto(tmp, wire, r)
		default:
			tag := nd.tag(transport.KindGrad, pi, r)
			if err := nd.recv(r, tag, tmp); err != nil {
				return 0, fmt.Errorf("dist: gradient slice of param %d from rank %d: %w", pi, r, err)
			}
		}
		if r == 0 {
			copy(acc, src)
		} else {
			for i, v := range src {
				acc[i] += v
			}
		}
	}
	for i := range acc {
		acc[i] *= nd.scale
	}
	copy(diff[lo:hi], acc)
	return n, nil
}

// gather routes every reduced slice to the root through the tree: for
// each parameter (canonical order), a node receives its children's
// subtree slices into the gradient buffer, then forwards its whole
// subtree — own slice first, children in preorder — to its parent.
// Pure byte movement: no arithmetic, so tree shape cannot change bits.
func (nd *Node) gather() error {
	start := nd.now()
	moved := 0
	for _, pi := range nd.paramOrder {
		p := nd.network.Params()[pi]
		diff := p.Diff()
		for ci, c := range nd.children {
			for _, s := range nd.childPre[ci] {
				lo, hi := par.Chunk(p.Count(), nd.size, s)
				if lo == hi {
					continue
				}
				tag := nd.tag(transport.KindGather, pi, s)
				if err := nd.recv(c, tag, diff[lo:hi]); err != nil {
					return fmt.Errorf("dist: gather of param %d slice %d from child %d: %w", pi, s, c, err)
				}
				moved += hi - lo
			}
		}
		if nd.parent >= 0 {
			for _, s := range nd.pre {
				lo, hi := par.Chunk(p.Count(), nd.size, s)
				if lo == hi {
					continue
				}
				tag := nd.tag(transport.KindGather, pi, s)
				if err := nd.tr.Send(nd.parent, tag, diff[lo:hi]); err != nil {
					return err
				}
				moved += hi - lo
			}
		}
	}
	nd.span("gather", nd.parent, moved, start)
	return nil
}

// treeBcast routes the root's weights down the tree under kind: each node
// receives every parameter tensor from its parent (bitwise copies of the
// master weights) and forwards it to its children. The span and the
// error text are named by the kind ("bcast" after an update, "sync"
// from SyncWeights).
func (nd *Node) treeBcast(kind transport.Kind) error {
	start := nd.now()
	moved := 0
	for pi, p := range nd.network.Params() {
		data := p.Data()
		tag := nd.tag(kind, pi, 0)
		if nd.parent >= 0 {
			if err := nd.recv(nd.parent, tag, data); err != nil {
				return fmt.Errorf("dist: %s of param %d from rank %d: %w", kind, pi, nd.parent, err)
			}
			moved += len(data)
		}
		for _, c := range nd.children {
			if err := nd.tr.Send(c, tag, data); err != nil {
				return err
			}
			moved += len(data)
		}
	}
	nd.span(kind.String(), nd.parent, moved, start)
	return nil
}

// SyncWeights re-seeds the whole group with the root's weights: the tree
// broadcast of Step under KindSync, outside any iteration's lockstep.
// Every member must call it at the same (epoch, iteration) — the elastic
// supervisor does so right after a fence or rejoin, and a resumed run
// does so before its first step, which is what makes a re-formed group's
// weights identical to a clean run's at that point.
func (nd *Node) SyncWeights() error {
	if nd.size == 1 {
		return nil
	}
	return nd.treeBcast(transport.KindSync)
}

// now reads the tracer clock (zero when tracing is off).
func (nd *Node) now() time.Time {
	if !nd.tracer.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// span records one PhaseComm driver span. peer is stored in Band (-1
// for many-peer phases), the element count in Hi.
func (nd *Node) span(name string, peer, elems int, start time.Time) {
	if !nd.tracer.Enabled() {
		return
	}
	nd.tracer.Record(trace.Span{
		Name: name, Phase: trace.PhaseComm, Rank: trace.RankDriver, Band: peer,
		Lo: 0, Hi: elems, Start: nd.tracer.Stamp(start), Dur: time.Since(start),
	})
}

// encodeF64 packs a float64's bits into two float32 payload slots
// (high word first) so scalar losses cross the float32 transport
// without rounding; decodeF64 inverts it. Pure bit reinterpretation —
// no floating-point arithmetic touches the values.
func encodeF64(v float64) [2]float32 {
	b := math.Float64bits(v)
	return [2]float32{
		math.Float32frombits(uint32(b >> 32)),
		math.Float32frombits(uint32(b)),
	}
}

func decodeF64(bits [2]float32) float64 {
	b := uint64(math.Float32bits(bits[0]))<<32 | uint64(math.Float32bits(bits[1]))
	return math.Float64frombits(b)
}
