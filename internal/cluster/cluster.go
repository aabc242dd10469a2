// Package cluster is everything cmd/dnncluster does once its flags are
// parsed: it turns one Config into a distributed training run — k ranks
// in this process over the Local transport, or this process's one rank
// of a TCP group — and drives every rank through the single loop there
// is, dist.RunElastic (DISTRIBUTED.md §3).
//
// The pieces: Config.Rank is the per-rank runner (resume, the net
// Rebuild callback with the tracer attached, live loss display, final
// snapshot, trace file); RunGroup is the in-process group runner behind
// -role local, the -chaos-* drills and -predict's measured column, and
// is what turns one rank's failure into the run's prompt failure;
// RunCoordinator and RunWorker are the TCP roles; Predict is the
// simtime scaling study.
//
// Whether a run is supervised — heartbeats, fences, eviction — is not a
// switch here: dist derives it from -min-ranks, -rejoin and
// -iter-deadline, and MinRanks defaults to the group size, which is the
// rigid case. Nor is the gradient route: dist has one (point-to-point
// to the slice owners, then the reduction tree), so Fanout shapes the
// tree and GradWire picks the wire format of the contributions.
package cluster

import (
	"fmt"
	"io"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/faultinject"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

// Config is one dnncluster invocation; cmd/dnncluster binds a flag to
// each field and documents it there. Fields that shape the training
// result (everything but the Role, address and output paths) must match
// across the ranks of a group.
type Config struct {
	Role     string // local | coordinator | worker
	Replicas int
	Fanout   int
	GradWire string
	Iters    int
	Display  int

	// The model and data, bound by zoo.Ref.BindFlags: -model | -zoo,
	// -dataset, -data, -samples, -seed, and -batch, which here is the
	// global batch the ranks share.
	zoo.Ref
	Workers int // per-rank coarse engine team

	Addr     string
	AddrFile string

	Snapshot string
	Trace    string
	Resume   string

	FenceDir     string
	MinRanks     int // <= 0: the group size — nothing may be fenced out
	Rejoin       bool
	Heartbeat    time.Duration
	PeerTimeout  time.Duration
	IterDeadline time.Duration

	ChaosMode  string
	ChaosRank  int
	ChaosIter  int
	ChaosDelay time.Duration
	ChaosSeed  uint64

	Predict bool
}

// Run executes the invocation c describes, writing progress to out.
func Run(c Config, out io.Writer) error {
	switch {
	case c.Predict:
		return Predict(c, out)
	case c.Role == "local":
		_, err := RunGroup(c, out)
		return err
	case c.Role == "coordinator":
		return RunCoordinator(c, out)
	case c.Role == "worker":
		return RunWorker(c, out)
	default:
		return fmt.Errorf("unknown role %q (local|coordinator|worker)", c.Role)
	}
}

// load resolves the model once for this process (a prototxt is read and
// parsed here, not per rank per rebuild) and loads the global sample
// stream the size ranks shard. The sample count is rounded up to a whole
// number of global batches so shard epochs align (a data.NewShard
// requirement). A fan-out below 1 is refused here, before any rank
// starts: the banner would print the tree's clamp to 1 while the ranks
// trained on dist's default of 2.
func (c Config) load(size int, out io.Writer) (*zoo.Model, error) {
	if c.Fanout < 1 {
		return nil, fmt.Errorf("-fanout %d: the reduction tree needs a fan-out of at least 1", c.Fanout)
	}
	m, err := zoo.Resolve(c.Ref)
	if err != nil {
		return nil, err
	}
	gb := m.Batch
	if gb%size != 0 {
		return nil, fmt.Errorf("global batch %d of %s not divisible by %d replicas (pick -batch accordingly)", gb, m.Name, size)
	}
	n := c.Samples
	if n <= 0 {
		n = 32 * gb
	}
	if rem := n % gb; rem != 0 {
		n += gb - rem
	}
	m.LoadData(n)
	if m.Source.Len()%gb != 0 {
		return nil, fmt.Errorf("dataset length %d not divisible by global batch %d (pick -batch or -samples accordingly)", m.Source.Len(), gb)
	}
	fmt.Fprintf(out, "dataset: %s, global batch %d\n", m.DataString(), gb)
	return m, nil
}

// buildRankNet constructs rank r's network of a k-rank group: the
// seeded architecture over shard r of the global batch, its data cursor
// skipped past the startIter batches a resumed (or fenced) run already
// consumed. Identical seeds on every rank are what make the initial
// weights — and therefore the whole run — bitwise reproducible.
func (c Config) buildRankNet(m *zoo.Model, r, k, startIter int) (*net.Net, core.Engine, error) {
	shard, err := data.NewShard(m.Source, r, k, m.Batch)
	if err != nil {
		return nil, nil, err
	}
	specs, err := m.Specs(shard, shard.LocalBatch())
	if err != nil {
		return nil, nil, err
	}
	eng := core.NewCoarse(c.Workers)
	n, err := net.New(specs, eng)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	for _, l := range n.Layers() {
		if d, ok := l.(*layers.Data); ok {
			d.Skip(startIter)
		}
	}
	return n, eng, nil
}

// elasticConfig is the rank- and model-independent part of what c asks
// of dist.RunElastic over a base mesh of size ranks; Config.Rank adds the
// solver, the Rebuild callback and the coordinator's paths.
func (c Config) elasticConfig(size int) dist.ElasticConfig {
	minRanks := c.MinRanks
	if minRanks <= 0 {
		minRanks = size
	}
	return dist.ElasticConfig{
		Iters: c.Iters,
		Opts: dist.Options{
			Fanout:   c.Fanout,
			GradWire: c.GradWire,
		},
		ResumePath:   c.Resume,
		MinRanks:     minRanks,
		Rejoin:       c.Rejoin,
		Heartbeat:    c.Heartbeat,
		PeerTimeout:  c.PeerTimeout,
		IterDeadline: c.IterDeadline,
	}
}

// chaosScenario resolves the -chaos-* flags into a concrete failure
// plan for a size-rank group: explicit -chaos-rank/-chaos-iter pin the
// choice, anything left unset is drawn from the seeded injector so a
// drill replays from -chaos-seed alone. Nil means no drill. A drill
// needs a supervised run: nothing in a rigid group would notice the
// victim, and the survivors would wait on it forever.
func (c Config) chaosScenario(size int) (*faultinject.ClusterScenario, error) {
	if c.ChaosMode == "" {
		return nil, nil
	}
	mode, err := transport.ParseChaosMode(c.ChaosMode)
	if err != nil || mode == transport.ChaosNone {
		return nil, err
	}
	if !c.elasticConfig(size).Supervised(size) {
		return nil, fmt.Errorf("-chaos-mode %s needs a supervised run (-min-ranks below the group size, -rejoin or -iter-deadline): a rigid group cannot outlive a rank", mode)
	}
	s, err := faultinject.New(c.ChaosSeed).ClusterScenario(size, c.Iters, mode)
	if err != nil {
		return nil, err
	}
	if c.ChaosRank >= 0 {
		if c.ChaosRank == 0 {
			return nil, fmt.Errorf("-chaos-rank 0 would kill the coordinator, which owns the solver; pick a worker rank")
		}
		s.Victim = c.ChaosRank
	}
	if c.ChaosIter >= 0 {
		s.AtIter = c.ChaosIter
	}
	s.StraggleDelay = c.ChaosDelay
	return &s, nil
}
