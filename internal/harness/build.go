package harness

import (
	"fmt"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/faults"
	"predis/internal/ledger"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// Deployment declares one simulated deployment of the shape every figure
// of §V measures: a consensus group of NC nodes, optional full nodes fed
// by a star or Multi-Zone topology, and open-loop clients, on a 100 Mbps
// network. Build wires it. Zero fields take the defaults noted; f is
// always (NC−1)/3.
type Deployment struct {
	// System selects the consensus nodes' data production strategy.
	// Multi-Zone distribution (Zones > 0) requires a Predis system.
	System System
	NC     int  // consensus group size (default 4)
	WAN    bool // WAN link latency instead of LAN
	Seed   int64
	// Suite signs for the consensus group (default: simulated keys
	// seeded Seed+7).
	Suite *crypto.SignerSuite
	// BundleSize (default 50) and BundleInterval (default 20ms) drive
	// Predis producers; BatchSize (default 800) baseline proposals.
	BundleSize     int
	BatchSize      int
	BundleInterval time.Duration
	ViewTimeout    time.Duration // default 2s
	// Stream enables streaming commit with a PBFT window of Pipeline
	// (see node.Config).
	Stream   bool
	Pipeline int
	// NoReplies stops consensus nodes from replying to clients.
	NoReplies bool
	// Faults sets per-node misbehaviour (Fig. 6 cases); Schedule is a
	// declarative fault schedule installed with the deployment's seed.
	Faults   map[wire.NodeID]core.FaultMode
	Schedule []faults.Action

	// FullNodes attach to the group: Zones == 0 is the star topology
	// (full node i receives complete blocks from consensus node i mod
	// NC); Zones > 0 is Multi-Zone. Full node i joins at i·JoinStep
	// (default 20ms). Multi-Zone fills zones in blocks, zone z holding
	// IDs 100+100z+k; Interleave deals them round-robin instead, full
	// node i taking ID 100+i in zone i mod Zones. Every Multi-Zone full
	// node backs up to one peer of the next zone.
	FullNodes  int
	Zones      int
	Interleave bool
	JoinStep   time.Duration
	// Alive is the full nodes' relayer heartbeat interval (default
	// 300ms); backup digests run once per ViewTimeout.
	Alive time.Duration
	// StarveRewire arms FullNodeConfig.StarveRewireAfter.
	StarveRewire int

	// Clients (default NC) with consecutive IDs from ClientBase (default
	// 5000) share Offered tx/s over Targets (default: the whole group).
	// They generate from Start to Stop (default 5s) after the epoch;
	// Start defaults to 50ms without full nodes and to the join window
	// (see joinWindow) with them. Ops, when set, attaches semantic
	// operations.
	Clients    int
	ClientBase wire.NodeID
	Offered    float64
	Targets    []wire.NodeID
	Ops        func(client wire.NodeID, seq uint64) types.Op
	Start      time.Duration
	Stop       time.Duration
	// Collector, when set, records client submissions and confirmations
	// and consensus node 0's commits.
	Collector *workload.Collector

	// Exec gives every consensus node an account machine. With Ledger
	// set, every Multi-Zone full node executes too and the first one
	// persists the chain to Ledger. OnExecute observes every result.
	Exec      ExecMode
	Ledger    *ledger.Ledger
	OnExecute func(exec.Result)

	// OnCommit observes each consensus node's commits; at is virtual
	// time since the epoch. Apply receives the committed transactions
	// themselves (plain consensus nodes only: Zones == 0).
	OnCommit func(node int, height uint64, txs int, at time.Duration)
	Apply    func(node int, txs []*types.Transaction)
	// OnFullBlock observes every Multi-Zone full node's completed blocks.
	OnFullBlock func(id wire.NodeID, blk *core.PredisBlock, txs int, at time.Duration)

	// Observe records lifecycle spans, metrics and NIC/queue samples
	// into the built Sink. Tracing is passive: it moves no hash.
	Observe bool
	// Replay, when set, folds every delivery into the trace.
	Replay *ReplayTrace
}

// ExecMode selects the consensus nodes' execution plane.
type ExecMode int

// Execution modes.
const (
	ExecNone     ExecMode = iota
	ExecParallel          // two-phase conflict-levelled committer
	ExecSerial            // reference serial committer
)

// execGenesis is the genesis balance of every account in the harness's
// execution-plane deployments. Against contentionAmount-sized transfers
// it leaves room for a hot account to drain into deterministic aborts
// within a run.
const execGenesis = 1000

// Sink holds one run's observability artifacts: the replay trace and,
// with Deployment.Observe, the lifecycle tracer, the metrics registry and
// the simnet sampler. Pass a zero-value sink via Options.Obs; experiments
// that observe fill it, and predis-bench exports Chrome traces and CSV
// breakdowns from it.
type Sink struct {
	Replay  *ReplayTrace
	Trace   *obs.Tracer
	Metrics *obs.Registry
	Sampler *obs.Sampler
}

// Built is a wired deployment, ready to Run.
type Built struct {
	Net *simnet.Network
	// Nodes are the consensus nodes (inside their hosts under Multi-Zone)
	// and Machines their executors, when Exec is set.
	Nodes    []*node.Node
	Machines []*exec.Machine
	// Fulls are the Multi-Zone full nodes in join order.
	Fulls  []*multizone.FullNode
	Faults *faults.Injector // nil without a Schedule
	Sink   Sink
	// Evictions counts stream-mode proposal retractions across plain
	// consensus nodes: the speculation-waste signal.
	Evictions uint64
}

// Run starts the network and runs it to horizon.
func (b *Built) Run(horizon time.Duration) {
	b.Net.Start()
	b.Net.Run(horizon)
}

// elapsed is the virtual time since the epoch.
func (b *Built) elapsed() time.Duration { return b.Net.Now().Sub(simnet.Epoch) }

func (d Deployment) withDefaults() Deployment {
	if d.NC == 0 {
		d.NC = 4
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
	if d.BundleSize == 0 {
		d.BundleSize = 50
	}
	if d.BatchSize == 0 {
		d.BatchSize = 800
	}
	if d.BundleInterval == 0 {
		d.BundleInterval = 20 * time.Millisecond
	}
	if d.ViewTimeout == 0 {
		d.ViewTimeout = 2 * time.Second
	}
	if d.JoinStep == 0 {
		d.JoinStep = 20 * time.Millisecond
	}
	if d.Alive == 0 {
		d.Alive = 300 * time.Millisecond
	}
	if d.Clients == 0 {
		d.Clients = d.NC
	}
	if d.ClientBase == 0 {
		d.ClientBase = 5000
	}
	if d.Start == 0 {
		d.Start = 50 * time.Millisecond
		if d.FullNodes > 0 {
			d.Start = d.joinWindow()
		}
	}
	if d.Stop == 0 {
		d.Stop = 5 * time.Second
	}
	return d
}

// joinWindow is when the last full node has joined, plus 200ms to settle.
func (d Deployment) joinWindow() time.Duration {
	step := d.JoinStep
	if step == 0 {
		step = 20 * time.Millisecond
	}
	return time.Duration(d.FullNodes)*step + 200*time.Millisecond
}

// measured returns a collector whose window skips the first quarter of
// the generation interval.
func (d Deployment) measured() *workload.Collector {
	d = d.withDefaults()
	return workload.NewCollector(simnet.Epoch.Add(d.Start+(d.Stop-d.Start)/4), simnet.Epoch.Add(d.Stop))
}

// fullID returns full node i's ID and zone under d's layout.
func (d Deployment) fullID(i int) (wire.NodeID, int) {
	if d.Interleave || d.Zones == 0 {
		return wire.NodeID(100 + i), i % max(d.Zones, 1)
	}
	perZone := d.FullNodes / d.Zones
	z, k := i/perZone, i%perZone
	return wire.NodeID(100 + 100*z + k), z
}

// Build registers the wire messages and wires d into a fresh network:
// consensus nodes, then full nodes, then the fault schedule, then
// clients. Call Run on the result.
func Build(d Deployment) (*Built, error) {
	d = d.withDefaults()
	mode, engine, err := modeEngine(d.System)
	if err != nil {
		return nil, err
	}
	if d.Zones > 0 && mode != node.ModePredis {
		return nil, fmt.Errorf("harness: Multi-Zone needs a Predis system, got %q", d.System)
	}
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	topology.RegisterMessages()

	latency := simnet.LANLatency()
	if d.WAN {
		latency = simnet.WANLatency()
	}
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: latency, Seed: d.Seed,
	})
	b := &Built{Net: net, Sink: Sink{Replay: d.Replay}}
	if d.Replay != nil {
		d.Replay.Attach(net)
	}
	if d.Observe {
		b.Sink.Trace = obs.NewTracer(simnet.Epoch)
		b.Sink.Metrics = obs.NewRegistry()
		b.Sink.Sampler = obs.NewSampler(net, 100*time.Millisecond, b.Sink.Metrics)
	}
	tracer := b.Sink.Trace

	nc, f := d.NC, (d.NC-1)/3
	suite := d.Suite
	if suite == nil {
		suite = crypto.NewSimSuite(nc, uint64(d.Seed)+7)
	}
	var striper *multizone.Striper
	if d.Zones > 0 {
		if striper, err = multizone.NewStriper(nc, f); err != nil {
			return nil, err
		}
	}

	for i := 0; i < nc; i++ {
		var machine *exec.Machine
		if d.Exec != ExecNone {
			machine = exec.NewMachine(execGenesis)
			b.Machines = append(b.Machines, machine)
		}
		commit := func(height uint64, txs int) {
			if d.Collector != nil && i == 0 {
				d.Collector.RecordNodeCommit(net.Now(), txs)
			}
			if d.OnCommit != nil {
				d.OnCommit(i, height, txs, b.elapsed())
			}
		}
		if d.Zones > 0 {
			host, err := multizone.NewConsensusHost(multizone.HostConfig{
				NC: nc, F: f, Self: wire.NodeID(i),
				Signer:         suite.Signer(i),
				Engine:         engine,
				BundleSize:     d.BundleSize,
				BundleInterval: d.BundleInterval,
				ViewTimeout:    d.ViewTimeout,
				Stream:         d.Stream,
				Pipeline:       d.Pipeline,
				Striper:        striper,
				ReplyToClients: !d.NoReplies,
				Trace:          tracer,
				Metrics:        b.Sink.Metrics,
				Executor:       machine,
				ExecSerial:     d.Exec == ExecSerial,
				OnExecute:      d.OnExecute,
				OnCommit:       commit,
			})
			if err != nil {
				return nil, err
			}
			b.Nodes = append(b.Nodes, host.Node)
			net.AddNode(wire.NodeID(i), host)
			continue
		}
		var star *topology.StarSource
		if d.FullNodes > 0 {
			var attached []wire.NodeID
			for k := i; k < d.FullNodes; k += nc {
				id, _ := d.fullID(k)
				attached = append(attached, id)
			}
			star = topology.NewStarSource(attached)
		}
		cfg := node.Config{
			Mode: mode, Engine: engine,
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			BatchSize:      d.BatchSize,
			BundleSize:     d.BundleSize,
			BundleInterval: d.BundleInterval,
			ViewTimeout:    d.ViewTimeout,
			Fault:          d.Faults[wire.NodeID(i)],
			Stream:         d.Stream,
			Pipeline:       d.Pipeline,
			ReplyToClients: !d.NoReplies,
			Trace:          tracer,
			Metrics:        b.Sink.Metrics,
			Executor:       machine,
			ExecSerial:     d.Exec == ExecSerial,
			OnExecute:      d.OnExecute,
			OnCommit: func(height uint64, txs []*types.Transaction) {
				if star != nil {
					star.Publish(height, wire.NodeID(i), types.TotalBytes(txs))
				}
				if d.Apply != nil {
					d.Apply(i, txs)
				}
				commit(height, len(txs))
			},
		}
		if d.Stream {
			// The simulation runs on one goroutine: a bare counter is safe.
			cfg.OnBlockEvict = func(*core.PredisBlock) { b.Evictions++ }
		}
		n, err := node.New(cfg)
		if err != nil {
			return nil, err
		}
		b.Nodes = append(b.Nodes, n)
		if star != nil {
			net.AddNode(wire.NodeID(i), &starNode{Node: n, src: star})
		} else {
			net.AddNode(wire.NodeID(i), n)
		}
	}

	if err := b.addFullNodes(d, suite, striper); err != nil {
		return nil, err
	}
	if d.Schedule != nil {
		b.Faults = faults.Install(net, faults.Schedule{Seed: d.Seed, Actions: d.Schedule})
	}

	targets := d.Targets
	if targets == nil {
		for i := 0; i < nc; i++ {
			targets = append(targets, wire.NodeID(i))
		}
	}
	policy := workload.RoundRobin
	if mode == node.ModeBaseline {
		policy = workload.Broadcast
	}
	for k := 0; k < d.Clients; k++ {
		id := d.ClientBase + wire.NodeID(k)
		net.AddNode(id, workload.NewClient(workload.ClientConfig{
			Self:      id,
			Targets:   targets,
			Policy:    policy,
			Rate:      d.Offered / float64(d.Clients),
			TxSize:    types.DefaultTxSize,
			F:         f,
			Epoch:     simnet.Epoch,
			GenStart:  simnet.Epoch.Add(d.Start),
			GenStop:   simnet.Epoch.Add(d.Stop),
			Collector: d.Collector,
			Trace:     tracer,
			Ops:       d.Ops,
		}))
	}
	b.Sink.Sampler.Start(d.Stop)
	return b, nil
}

// addFullNodes attaches d's full nodes in join order: topology sinks in
// the star, subscribing FullNodes under Multi-Zone.
func (b *Built) addFullNodes(d Deployment, suite *crypto.SignerSuite, striper *multizone.Striper) error {
	if d.Zones == 0 {
		for i := 0; i < d.FullNodes; i++ {
			id, _ := d.fullID(i)
			b.Net.AddNode(id, topology.NewSink(nil))
		}
		return nil
	}
	members := make([][]wire.NodeID, d.Zones)
	for i := 0; i < d.FullNodes; i++ {
		id, z := d.fullID(i)
		members[z] = append(members[z], id)
	}
	for i := 0; i < d.FullNodes; i++ {
		id, z := d.fullID(i)
		var peers, backups []wire.NodeID
		for _, p := range members[z] {
			if p != id {
				peers = append(peers, p)
			}
		}
		if other := members[(z+1)%d.Zones]; d.Zones > 1 && len(other) > 0 {
			backups = append(backups, other[i%len(other)])
		}
		cfg := multizone.FullNodeConfig{
			Self: id, Zone: z, JoinSeq: uint64(i),
			NC: d.NC, F: (d.NC - 1) / 3,
			Striper:           striper,
			Signer:            suite.Signer(0),
			ZonePeers:         peers,
			BackupPeers:       backups,
			AliveInterval:     d.Alive,
			DigestInterval:    d.ViewTimeout,
			StarveRewireAfter: d.StarveRewire,
			Trace:             b.Sink.Trace,
		}
		if d.Ledger != nil {
			cfg.Executor = exec.NewMachine(execGenesis)
			cfg.ExecSerial = d.Exec == ExecSerial
			cfg.OnExecute = d.OnExecute
			if i == 0 {
				cfg.Ledger = d.Ledger
			}
		}
		if d.OnFullBlock != nil {
			cfg.OnBlockComplete = func(blk *core.PredisBlock, txs int) {
				d.OnFullBlock(id, blk, txs, b.elapsed())
			}
		}
		fn, err := multizone.NewFullNode(cfg)
		if err != nil {
			return err
		}
		b.Fulls = append(b.Fulls, fn)
		b.Net.AddNode(id, &multizone.Delayed{Inner: fn, Delay: time.Duration(i) * d.JoinStep})
	}
	return nil
}

// starNode couples a consensus node with the star-topology source that
// ships every committed block, in full, to its attached full nodes.
type starNode struct {
	*node.Node
	src *topology.StarSource
}

var _ env.Handler = (*starNode)(nil)

func (h *starNode) Start(ctx env.Context) {
	h.src.Start(ctx)
	h.Node.Start(ctx)
}
