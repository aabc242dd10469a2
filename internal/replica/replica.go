// Package replica implements synchronous data-parallel training across
// multiple network replicas — the "compatible with multi-GPU execution
// without altering the algorithm convergence rate" claim of the paper's
// introduction.
//
// Each replica ("device") owns a full copy of the model and processes one
// contiguous shard of every global batch (see data.Shard); replicas run
// concurrently, each with its own execution engine (so batch-level
// coarse-grain parallelism composes with cross-device parallelism exactly
// as OpenMP-within-a-GPU-server composes with multiple GPUs). After every
// iteration the per-replica gradients are combined *in ascending replica
// order* — per element, replica 1's contribution is added to replica 0's,
// then replica 2's, and so on, the same rank-ordered fold that
// par.Pool.OrderedSlices uses inside the coarse engine's reduce — scaled
// by 1/R, and applied to the master weights, which are then broadcast
// back bitwise. The fixed fold order is what makes an R-replica run
// bit-reproducible, and it is the exact contract internal/dist carries
// across process boundaries: a k-rank distributed run is asserted
// bit-identical to this trainer with k replicas (DISTRIBUTED.md).
//
// Because shard gradients sum to exactly the global-batch gradient, no
// training parameter changes: the trainer's loss trace matches a
// single-device run over the same global batches, which is the
// convergence-invariance property extended across devices.
//
// # Observability
//
// Each replica's network accepts its own tracer — attach a trace.Tracer
// to an individual replica's net to measure within-device behavior,
// per-layer table included (trace.PerLayer). Each replica has a private
// engine and worker team, so tracers must not be shared across replicas
// (the tracer's shards are keyed by one pool's ranks). Cross-device timing —
// the synchronous merge barrier — is visible as the gap between a
// replica's last backward span and the next iteration's first forward
// span. See OBSERVABILITY.md.
package replica

import (
	"fmt"
	"sync"

	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
)

// Trainer drives R replicas synchronously.
type Trainer struct {
	replicas []*net.Net
	master   *net.Net // replicas[0]; owns the authoritative weights
	solver   *solver.Solver
	scale    float32 // 1/R, applied after the ordered combine
}

// New creates a trainer over the given replicas. All replicas must have
// identical architectures and identical initial weights (build them with
// the same seed). cfg configures the solver that updates the master
// weights.
func New(replicas []*net.Net, cfg solver.Config) (*Trainer, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("replica: no replicas")
	}
	master := replicas[0]
	for i, r := range replicas[1:] {
		if len(r.Params()) != len(master.Params()) {
			return nil, fmt.Errorf("replica: replica %d has %d params, master has %d",
				i+1, len(r.Params()), len(master.Params()))
		}
		for pi, p := range r.Params() {
			mp := master.Params()[pi]
			if p.Count() != mp.Count() {
				return nil, fmt.Errorf("replica: replica %d param %d count mismatch", i+1, pi)
			}
			for j, v := range p.Data() {
				if v != mp.Data()[j] {
					return nil, fmt.Errorf("replica: replica %d param %d differs from master at %d (build replicas with the same seed)", i+1, pi, j)
				}
			}
		}
	}
	s, err := solver.New(cfg, master)
	if err != nil {
		return nil, err
	}
	return &Trainer{
		replicas: replicas,
		master:   master,
		solver:   s,
		scale:    1 / float32(len(replicas)),
	}, nil
}

// Replicas returns the replica count.
func (t *Trainer) Replicas() int { return len(t.replicas) }

// Iter returns the completed iteration count.
func (t *Trainer) Iter() int { return t.solver.Iter() }

// Solver exposes the master solver (learning rate, snapshots).
func (t *Trainer) Solver() *solver.Solver { return t.solver }

// Master returns the net holding the authoritative weights.
func (t *Trainer) Master() *net.Net { return t.master }

// Step runs iters synchronous iterations and returns the global loss of
// each (the mean of replica losses, which equals the loss a single device
// would compute over the whole global batch).
func (t *Trainer) Step(iters int) []float64 {
	losses := make([]float64, 0, iters)
	r := len(t.replicas)
	replicaLoss := make([]float64, r)
	var wg sync.WaitGroup
	for it := 0; it < iters; it++ {
		// Compute phase: every replica processes its shard concurrently.
		// Each replica accumulates gradients into its own parameter
		// blobs; no sharing happens until the combine below.
		for i, n := range t.replicas {
			wg.Add(1)
			go func(i int, n *net.Net) {
				defer wg.Done()
				n.ZeroParamDiffs()
				replicaLoss[i] = n.ForwardBackward()
			}(i, n)
		}
		wg.Wait()

		// Combine phase: average gradients in replica order into the
		// master's diffs (replica 0's own gradient is already there).
		for pi, mp := range t.master.Params() {
			for _, rep := range t.replicas[1:] {
				mp.AccumulateDiffFrom(rep.Params()[pi])
			}
			mp.ScaleDiff(t.scale)
		}

		// Update + broadcast: the solver consumes the combined gradient;
		// the new master weights are copied to every other replica.
		t.solver.UpdateFromGradients()
		for _, rep := range t.replicas[1:] {
			for pi, p := range rep.Params() {
				p.CopyDataFrom(t.master.Params()[pi])
			}
		}

		var sum float64
		for _, l := range replicaLoss {
			sum += l
		}
		losses = append(losses, sum/float64(r))
	}
	return losses
}

// Accuracy returns the mean of a named scalar output across replicas
// (e.g. per-shard batch accuracy).
func (t *Trainer) Accuracy(blobName string) (float32, error) {
	var sum float32
	for _, rep := range t.replicas {
		v, err := rep.Output(blobName)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float32(len(t.replicas)), nil
}
