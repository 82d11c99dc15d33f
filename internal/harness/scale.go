package harness

import (
	"fmt"
	"time"

	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// The scale experiment (ROADMAP 3a) measures what the rest of the suite
// cannot: population cost. N tree relays at fixed per-node bandwidth
// receive blocks down a k-ary multicast tree while aggregated client
// flows (one generator per 1000 logical clients — see workload.Flow)
// offer transaction load to the root. Sweeping N over 10²..5·10⁴ and the
// tree fan-out over deep/shallow/auto reproduces the Shallow Overlay
// Trees trade-off: deep trees pay latency·depth, shallow trees pay
// k·B/U per level, and the bandwidth-aware optimum sits between.
//
// Two kinds of output: the delivery/throughput/depth tables are
// deterministic (pure virtual-time measurements), while the machine-cost
// table (wall-clock seconds, process peak RSS) is inherently
// nondeterministic and exists to evidence the "node count is cheap now"
// claim — a 10k-node point must finish in seconds, not minutes.

// scaleSpec configures one (N, fanout) population point.
type scaleSpec struct {
	n      int
	fanout int // 0 = bandwidth-aware auto (topology.BestFanout)
	// blockBytes and blocks describe the root's block publications.
	blockBytes int
	blocks     int
	// clientRate is the offered load per logical client (tx/s); the
	// logical client population equals n.
	clientRate float64
	seed       int64
}

// scaleResult is one point's measurement.
type scaleResult struct {
	fanout   int // resolved (auto → concrete k)
	depth    int
	delivery stats.Summary // per-node block delivery latency
	coverage int           // block deliveries observed (want blocks·(n-1))
	txs      uint64        // transactions the root received
	txRate   float64       // tx/s over the generation window
	wall     time.Duration // nondeterministic: host wall-clock
	rssMB    int           // nondeterministic: process peak RSS after the point
}

// scaleRoot is the root handler: a tree relay that also absorbs the
// aggregated flows' transactions.
type scaleRoot struct {
	relay *topology.TreeRelay
	txs   uint64
}

func (r *scaleRoot) Start(ctx env.Context) { r.relay.Start(ctx) }

func (r *scaleRoot) Receive(from wire.NodeID, m wire.Message) {
	switch m.(type) {
	case *types.SubmitTx:
		r.txs++
	default:
		r.relay.Receive(from, m)
	}
}

// scaleFlowBase keeps flow node IDs clear of any relay population size.
const scaleFlowBase = 1 << 20

// runScalePoint builds and runs one population point. Host machine cost
// rides along through env.HostMeter — the sanctioned channel for
// explicitly-nondeterministic measurements.
func runScalePoint(spec scaleSpec) (scaleResult, error) {
	meter := env.NewHostMeter()
	meter.WallStart()
	topology.RegisterMessages()
	types.RegisterMessages()

	const latency = 2 * time.Millisecond
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(latency),
		Seed:    spec.seed,
	})

	k := spec.fanout
	if k == 0 {
		k = topology.BestFanout(spec.n, spec.blockBytes, float64(simnet.Mbps100), latency)
	}
	order := make([]wire.NodeID, spec.n)
	for i := range order {
		order[i] = wire.NodeID(i)
	}
	tree := topology.NewTree(order, k)

	// Delivery latency sinks into a fixed-memory histogram: at 5·10⁴
	// nodes a sorted-sample summary would hold every delivery.
	var hist stats.Histogram
	published := make(map[uint64]time.Time)
	coverage := 0
	onBlock := func(height uint64, at time.Time) {
		hist.Observe(at.Sub(published[height]))
		coverage++
	}
	root := &scaleRoot{relay: topology.NewTreeRelay(tree, nil)}
	net.AddNode(order[0], root)
	for _, id := range order[1:] {
		net.AddNode(id, topology.NewTreeRelay(tree, onBlock))
	}

	// Aggregated flows: 1000 logical clients per generator, all
	// submitting to the root.
	const clientsPerFlow = 1000
	interval := time.Second
	genStop := simnet.Epoch.Add(time.Duration(spec.blocks) * interval)
	for i, first := 0, 0; first < spec.n; i, first = i+1, first+clientsPerFlow {
		clients := spec.n - first
		if clients > clientsPerFlow {
			clients = clientsPerFlow
		}
		net.AddNode(wire.NodeID(scaleFlowBase+i), workload.NewFlow(workload.FlowConfig{
			Self:     wire.NodeID(scaleFlowBase + i),
			Target:   order[0],
			Rate:     spec.clientRate * float64(clients),
			TxSize:   types.DefaultTxSize,
			Epoch:    simnet.Epoch,
			GenStart: simnet.Epoch,
			GenStop:  genStop,
			Seed:     uint64(spec.seed)*0x9e3779b97f4a7c15 + uint64(i),
		}))
	}
	net.Start()

	for b := 1; b <= spec.blocks; b++ {
		h := uint64(b)
		published[h] = net.Now()
		root.relay.Publish(h, order[0], spec.blockBytes)
		net.Run(net.Elapsed() + interval)
	}
	net.RunUntilIdle(0)

	// Rate over the generation window, not the (topology-dependent) drain
	// time — otherwise a slow tree depresses apparent flow throughput.
	genWindow := genStop.Sub(simnet.Epoch)
	return scaleResult{
		fanout:   k,
		depth:    tree.Depth(),
		delivery: hist.Summary(),
		coverage: coverage,
		txs:      root.txs,
		txRate:   float64(root.txs) / genWindow.Seconds(),
		wall:     meter.WallElapsed(),
		rssMB:    meter.PeakRSSMB(),
	}, nil
}

// scaleFanouts are the swept tree shapes: deep (k=2), two intermediates,
// shallow (k=32), and the bandwidth-aware automatic choice.
var scaleFanouts = []struct {
	label  string
	fanout int
}{
	{"k=2 (deep)", 2},
	{"k=8", 8},
	{"k=32 (shallow)", 32},
	{"k=auto", 0},
}

// Scale reproduces the population sweep.
func Scale(o Options) ([]*stats.Table, error) {
	ns := []int{100, 1000, 10000, 50000}
	blocks := 3
	if o.Quick {
		ns = []int{100, 1000, 10000}
		blocks = 2
	}
	type job struct {
		n       int
		variant int // index into scaleFanouts
	}
	var jobs []job
	for _, n := range ns {
		for v := range scaleFanouts {
			jobs = append(jobs, job{n, v})
		}
	}
	results, err := fanOut(o, len(jobs), func(i int) (scaleResult, error) {
		j := jobs[i]
		return runScalePoint(scaleSpec{
			n:          j.n,
			fanout:     scaleFanouts[j.variant].fanout,
			blockBytes: 256 << 10,
			blocks:     blocks,
			clientRate: 0.2,
			seed:       o.seed(),
		})
	})
	if err != nil {
		return nil, err
	}

	p90 := &stats.Table{Title: "Scale: block delivery p90 (ms) vs population, 256 KB blocks, 100 Mbps, 2 ms", XLabel: "nodes"}
	depth := &stats.Table{Title: "Scale: tree depth (hops) and resolved fan-out", XLabel: "nodes"}
	tput := &stats.Table{Title: "Scale: aggregated-flow throughput at the root (tx/s, 0.2 tx/s per logical client)", XLabel: "nodes"}
	machine := &stats.Table{Title: "Scale: machine cost (nondeterministic) — wall-clock s per point, process peak RSS MB", XLabel: "nodes"}
	rss := &stats.Series{Name: "peak_rss_MB"}
	idx := 0
	for _, n := range ns {
		for v, fo := range scaleFanouts {
			res := results[idx]
			idx++
			if want := blocks * (n - 1); res.coverage != want {
				return nil, fmt.Errorf("scale: n=%d %s covered %d deliveries, want %d",
					n, fo.label, res.coverage, want)
			}
			name := fo.label
			series(p90, name).Add(float64(n), float64(res.delivery.P90)/float64(time.Millisecond))
			series(depth, name).Add(float64(n), float64(res.depth))
			if fo.fanout == 0 {
				// The resolved auto fan-out rides in the depth table as its
				// own series so the choice is visible in the output.
				series(depth, "auto resolved k").Add(float64(n), float64(res.fanout))
			}
			series(tput, name).Add(float64(n), res.txRate)
			series(machine, name+" wall_s").Add(float64(n), res.wall.Seconds())
			if v == len(scaleFanouts)-1 {
				rss.Add(float64(n), float64(res.rssMB))
			}
		}
	}
	machine.Series = append(machine.Series, rss)
	return []*stats.Table{p90, depth, tput, machine}, nil
}

// series returns the named series of t, creating it on first use.
func series(t *stats.Table, name string) *stats.Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	s := &stats.Series{Name: name}
	t.Series = append(t.Series, s)
	return s
}
