package predis_test

// Scale benchmarks: how much does one simulated second of a large-population
// deployment cost in wall-clock time and allocations?
//
// BenchmarkScaleNaive1k is the pre-aggregation shape: one workload.Client
// per logical client (a timer per client per tick, a pending map per
// client) and star fan-out from per-source copies of the attached-node
// list. BenchmarkScaleFlow1k/10k drive the same offered load through one
// aggregated Poisson flow per thousands of logical clients and a shared
// child-index multicast tree. The allocs/op ratio between the two 1k rows
// is the headline tracked in BENCH_scale.json (make bench-scale); the
// "cpus" metric records the hardware parallelism available when the rows
// were taken.

import (
	"runtime"
	"testing"
	"time"

	"predis/internal/simnet"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"

	"predis/internal/env"
)

// countingRoot absorbs submitted transactions and counts them; it stands in
// for the consensus core so the benchmark measures population cost, not
// consensus cost.
type countingRoot struct {
	txs uint64
}

func (r *countingRoot) Start(ctx env.Context) {}

func (r *countingRoot) Receive(from wire.NodeID, m wire.Message) {
	switch m.(type) {
	case *types.SubmitTx:
		r.txs++
	default:
	}
}

// runScaleNaive simulates one virtual second of a 1000-node population the
// pre-aggregation way: 1000 star sinks fanned out to from 4 sources, and
// 1000 individual clients each running its own tick timer.
func runScaleNaive(b *testing.B, nodes, clients int) {
	topology.RegisterMessages()
	types.RegisterMessages()
	const sources = 4
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(2 * time.Millisecond),
		Seed:    1,
	})
	root := &countingRoot{}
	net.AddNode(0, root)

	attached := make([][]wire.NodeID, sources)
	for i := 0; i < nodes; i++ {
		id := wire.NodeID(100 + i)
		attached[i%sources] = append(attached[i%sources], id)
		net.AddNode(id, topology.NewSink(nil))
	}
	srcs := make([]*topology.StarSource, sources)
	for i := range srcs {
		srcs[i] = topology.NewStarSource(attached[i])
		net.AddNode(wire.NodeID(1+i), &starShell{src: srcs[i]})
	}

	end := simnet.Epoch.Add(time.Second)
	for k := 0; k < clients; k++ {
		cl := workload.NewClient(workload.ClientConfig{
			Self:     wire.NodeID(10000 + k),
			Targets:  []wire.NodeID{0},
			Policy:   workload.FirstOnly,
			Rate:     2, // 2 tx/s per logical client
			TxSize:   types.DefaultTxSize,
			Epoch:    simnet.Epoch,
			GenStart: simnet.Epoch,
			GenStop:  end,
		})
		net.AddNode(wire.NodeID(10000+k), cl)
	}
	net.Start()
	// One block published per 250ms of the simulated second.
	for blk := 1; blk <= 4; blk++ {
		for i, src := range srcs {
			src.Publish(uint64(blk), wire.NodeID(1+i), 64<<10)
		}
		net.Run(time.Duration(blk) * 250 * time.Millisecond)
	}
	net.RunUntilIdle(0)
	if root.txs == 0 {
		b.Fatal("no transactions reached the root")
	}
}

// starShell adapts a StarSource to env.Handler.
type starShell struct {
	src *topology.StarSource
}

func (s *starShell) Start(ctx env.Context)                    { s.src.Start(ctx) }
func (s *starShell) Receive(from wire.NodeID, m wire.Message) {}

func BenchmarkScaleNaive1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleNaive(b, 1000, 1000)
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// runScaleFlow simulates the same offered load the aggregated way: one
// workload.Flow standing in for all logical clients (one timer per tick
// total) and a shared-slice 8-ary multicast tree fanning the same four
// 64 KB blocks over the same population.
func runScaleFlow(b *testing.B, nodes, clients int) {
	topology.RegisterMessages()
	types.RegisterMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(2 * time.Millisecond),
		Seed:    1,
	})
	order := make([]wire.NodeID, nodes+1)
	for i := range order {
		order[i] = wire.NodeID(i) // position 0 (id 0) is the root
	}
	tree := topology.NewTree(order, 8)
	root := &flowRoot{relay: topology.NewTreeRelay(tree, nil)}
	net.AddNode(order[0], root)
	for _, id := range order[1:] {
		net.AddNode(id, topology.NewTreeRelay(tree, nil))
	}

	end := simnet.Epoch.Add(time.Second)
	net.AddNode(wire.NodeID(1<<20), workload.NewFlow(workload.FlowConfig{
		Self:     wire.NodeID(1 << 20),
		Target:   order[0],
		Rate:     2 * float64(clients), // same aggregate 2 tx/s per logical client
		TxSize:   types.DefaultTxSize,
		Epoch:    simnet.Epoch,
		GenStart: simnet.Epoch,
		GenStop:  end,
		Seed:     1,
	}))
	net.Start()
	for blk := 1; blk <= 4; blk++ {
		root.relay.Publish(uint64(blk), order[0], 64<<10)
		net.Run(time.Duration(blk) * 250 * time.Millisecond)
	}
	net.RunUntilIdle(0)
	if root.txs == 0 {
		b.Fatal("no transactions reached the root")
	}
}

// flowRoot is the tree root plus transaction sink.
type flowRoot struct {
	relay *topology.TreeRelay
	txs   uint64
}

func (r *flowRoot) Start(ctx env.Context) { r.relay.Start(ctx) }

func (r *flowRoot) Receive(from wire.NodeID, m wire.Message) {
	switch m.(type) {
	case *types.SubmitTx:
		r.txs++
	default:
		r.relay.Receive(from, m)
	}
}

func BenchmarkScaleFlow1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleFlow(b, 1000, 1000)
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

func BenchmarkScaleFlow10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleFlow(b, 10000, 10000)
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}
