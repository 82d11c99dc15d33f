package harness

import (
	"fmt"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/gossip"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
)

// Fig. 8 measures block propagation latency across ~100 full nodes for
// the star topology, the random topology with FEG gossip, and Multi-Zone
// with 3 and 12 zones, at block sizes from 1 MB to 40 MB. Per the paper's
// setup, star and random ship complete blocks when a block is produced,
// while Multi-Zone pre-distributes bundle stripes continuously and ships
// only the tiny Predis block at production time.

// propPercentiles are the coverage points reported per topology.
var propPercentiles = []float64{25, 50, 75, 90, 100}

// latencyAtCoverage converts per-node arrival delays into latency at each
// coverage percentage.
func latencyAtCoverage(delays []time.Duration, total int) map[float64]time.Duration {
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	out := make(map[float64]time.Duration, len(propPercentiles))
	for _, p := range propPercentiles {
		k := int(float64(total)*p/100+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(delays) {
			if len(delays) < total {
				continue // coverage never reached
			}
			k = len(delays) - 1
		}
		out[p] = delays[k]
	}
	return out
}

// fig8Spec configures one propagation measurement.
type fig8Spec struct {
	nc, f     int
	fullNodes int
	blockMB   int
	blocks    int
	seed      int64
}

// runFig8Star publishes complete blocks from consensus nodes to attached
// full nodes and reports per-coverage latency averaged over blocks.
func runFig8Star(spec fig8Spec) (map[float64]time.Duration, error) {
	topology.RegisterMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: spec.seed,
	})
	arrivals := make(map[uint64][]time.Duration)
	published := make(map[uint64]time.Time)

	attached := make([][]wire.NodeID, spec.nc)
	for i := 0; i < spec.fullNodes; i++ {
		id := wire.NodeID(100 + i)
		attached[i%spec.nc] = append(attached[i%spec.nc], id)
		net.AddNode(id, topology.NewSink(func(height uint64, at time.Time) {
			arrivals[height] = append(arrivals[height], at.Sub(published[height]))
		}))
	}
	sources := make([]*topology.StarSource, spec.nc)
	for i := 0; i < spec.nc; i++ {
		src := topology.NewStarSource(attached[i])
		sources[i] = src
		net.AddNode(wire.NodeID(i), &sourceShell{src: src})
	}
	net.Start()

	size := spec.blockMB << 20
	interval := blockInterval(spec.blockMB)
	for b := 1; b <= spec.blocks; b++ {
		h := uint64(b)
		published[h] = net.Now()
		for i, src := range sources {
			src.Publish(h, wire.NodeID(i), size) // every consensus node ships the complete block
		}
		net.Run(net.Elapsed() + interval)
	}
	net.Run(net.Elapsed() + 4*interval)
	return averageCoverage(arrivals, spec.fullNodes), nil
}

// sourceShell adapts a StarSource to env.Handler.
type sourceShell struct {
	src *topology.StarSource
}

func (s *sourceShell) Start(ctx env.Context)                    { s.src.Start(ctx) }
func (s *sourceShell) Receive(from wire.NodeID, m wire.Message) {}

// runFig8Random disseminates complete blocks over a degree-8 random graph
// with FEG-style gossip (fanout 4 + digest/pull).
func runFig8Random(spec fig8Spec) (map[float64]time.Duration, error) {
	topology.RegisterMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: spec.seed,
	})
	total := spec.nc + spec.fullNodes
	adj := randomAdjacency(total, 8, spec.seed)
	arrivals := make(map[uint64][]time.Duration)
	published := make(map[uint64]time.Time)

	nodes := make([]*gossip.Node, total)
	for i := 0; i < total; i++ {
		i := i
		var onBlock func(uint64, time.Time)
		if i >= spec.nc { // measure at full nodes only
			onBlock = func(height uint64, at time.Time) {
				arrivals[height] = append(arrivals[height], at.Sub(published[height]))
			}
		}
		nodes[i] = gossip.New(gossip.Config{
			Self:           wire.NodeID(i),
			Neighbors:      adj[i],
			Fanout:         4,
			DigestInterval: 500 * time.Millisecond,
			OnBlock:        onBlock,
		})
		net.AddNode(wire.NodeID(i), nodes[i])
	}
	net.Start()

	size := spec.blockMB << 20
	interval := blockInterval(spec.blockMB)
	for b := 1; b <= spec.blocks; b++ {
		h := uint64(b)
		published[h] = net.Now()
		for i := 0; i < spec.nc; i++ {
			nodes[i].Seed(&topology.BlockData{Height: h, Origin: wire.NodeID(i), Size: uint32(size)})
		}
		net.Run(net.Elapsed() + interval)
	}
	net.Run(net.Elapsed() + 4*interval)
	return averageCoverage(arrivals, spec.fullNodes), nil
}

// randomAdjacency builds a connected degree-d random graph.
func randomAdjacency(n, d int, seed int64) [][]wire.NodeID {
	adj := make([]map[wire.NodeID]bool, n)
	for i := range adj {
		adj[i] = make(map[wire.NodeID]bool)
	}
	link := func(a, b int) {
		if a != b {
			adj[a][wire.NodeID(b)] = true
			adj[b][wire.NodeID(a)] = true
		}
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for len(adj[i]) < d {
			link(i, next(n))
		}
	}
	out := make([][]wire.NodeID, n)
	for i, set := range adj {
		for id := range set {
			out[i] = append(out[i], id)
		}
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	return out
}

// runFig8MultiZone streams bundles as stripes continuously and measures
// how long a tiny Predis block plus local reassembly takes to complete a
// block at every full node.
func runFig8MultiZone(spec fig8Spec, zones int) (map[float64]time.Duration, error) {
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	striper, err := multizone.NewStriper(spec.nc, spec.f)
	if err != nil {
		return nil, err
	}
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: spec.seed,
	})
	suite := crypto.NewSimSuite(spec.nc, uint64(spec.seed)+31)

	arrivals := make(map[uint64][]time.Duration)
	published := make(map[uint64]time.Time)

	// Consensus-side sources: produce bundles, exchange them, stripe them
	// to subscribers, and publish Predis blocks.
	sources := make([]*blockSource, spec.nc)
	for i := 0; i < spec.nc; i++ {
		src, err := newBlockSource(blockSourceConfig{
			self: wire.NodeID(i), nc: spec.nc, f: spec.f,
			suite: suite, striper: striper,
			bundleSize: 50,
		})
		if err != nil {
			return nil, err
		}
		sources[i] = src
		net.AddNode(wire.NodeID(i), src)
	}

	// Full nodes over the zones, joining incrementally.
	perZone := make([][]wire.NodeID, zones)
	for i := 0; i < spec.fullNodes; i++ {
		id := wire.NodeID(100 + i)
		perZone[i%zones] = append(perZone[i%zones], id)
	}
	joinSpacing := 15 * time.Millisecond
	for i := 0; i < spec.fullNodes; i++ {
		id := wire.NodeID(100 + i)
		z := i % zones
		peers := make([]wire.NodeID, 0)
		for _, p := range perZone[z] {
			if p != id {
				peers = append(peers, p)
			}
		}
		var backups []wire.NodeID
		if zones > 1 {
			other := perZone[(z+1)%zones]
			if len(other) > 0 {
				backups = append(backups, other[i%len(other)])
			}
		}
		fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
			Self: id, Zone: z, JoinSeq: uint64(i),
			NC: spec.nc, F: spec.f,
			Striper:        striper,
			Signer:         suite.Signer(0),
			ZonePeers:      peers,
			BackupPeers:    backups,
			MaxSubscribers: 24, // §V-B: equalize bandwidth with the random topology
			AliveInterval:  300 * time.Millisecond,
			DigestInterval: 2 * time.Second,
			OnBlockComplete: func(blk *core.PredisBlock, txs int) {
				if pub, ok := published[blk.Height]; ok {
					arrivals[blk.Height] = append(arrivals[blk.Height], net.Now().Sub(pub))
				}
			},
		})
		if err != nil {
			return nil, err
		}
		net.AddNode(id, &multizone.Delayed{Inner: fn, Delay: time.Duration(i) * joinSpacing})
	}
	net.Start()
	// Let the subscription mesh settle.
	settle := time.Duration(spec.fullNodes)*joinSpacing + 2*time.Second
	net.Run(settle)

	bundleBytes := 50 * types.DefaultTxSize
	bundlesPerBlock := (spec.blockMB << 20) / bundleBytes
	perSource := (bundlesPerBlock + spec.nc - 1) / spec.nc
	interval := blockInterval(spec.blockMB)

	for b := 1; b <= spec.blocks; b++ {
		// Pre-distribute the block's bundles (this is continuous traffic in
		// steady state; its cost is *not* part of block propagation).
		for k := 0; k < perSource; k++ {
			for _, src := range sources {
				src.ProduceBundle()
			}
			// Pace production so uplinks are not modeled as infinitely
			// deep queues.
			net.Run(net.Elapsed() + time.Duration(float64(interval)/float64(perSource+1)))
		}
		// One tip-exchange round so the leader can prove availability.
		for _, src := range sources {
			src.ProduceBundle()
		}
		net.Run(net.Elapsed() + 300*time.Millisecond)

		blk, ok := sources[0].BuildBlock()
		if !ok {
			return nil, fmt.Errorf("fig8: leader could not cut a block at height %d", b)
		}
		published[blk.Height] = net.Now()
		sources[0].PublishBlock(blk)
		net.Run(net.Elapsed() + interval/2)
	}
	net.Run(net.Elapsed() + 30*time.Second)
	return averageCoverage(arrivals, spec.fullNodes), nil
}

// averageCoverage averages per-block coverage latencies across blocks.
func averageCoverage(arrivals map[uint64][]time.Duration, total int) map[float64]time.Duration {
	sums := make(map[float64]time.Duration)
	counts := make(map[float64]int)
	for _, delays := range arrivals {
		cov := latencyAtCoverage(delays, total)
		for p, d := range cov {
			sums[p] += d
			counts[p]++
		}
	}
	out := make(map[float64]time.Duration)
	for p, s := range sums {
		out[p] = s / time.Duration(counts[p])
	}
	return out
}

// blockInterval scales the production interval with block size so
// pre-distribution is feasible at 100 Mbps.
func blockInterval(blockMB int) time.Duration {
	switch {
	case blockMB <= 1:
		return 4 * time.Second
	case blockMB <= 5:
		return 12 * time.Second
	case blockMB <= 20:
		return 40 * time.Second
	default:
		return 80 * time.Second
	}
}

// Fig8 reproduces the propagation-latency comparison.
func Fig8(o Options) ([]*stats.Table, error) {
	blockSizes := []int{1, 5, 20, 40}
	fullNodes := 100
	blocks := 3
	zoneVariants := []int{3, 12}
	if o.Quick {
		blockSizes = []int{1, 5}
		fullNodes = 36
		blocks = 1
		zoneVariants = []int{3}
	}
	// Flatten (blockSize × topology-variant) into one batch for the
	// worker pool; each job runs its own simnet.Network and returns one
	// coverage series.
	type job struct {
		mb   int
		name string
		run  func(fig8Spec) (map[float64]time.Duration, error)
	}
	var jobs []job
	for _, mb := range blockSizes {
		jobs = append(jobs,
			job{mb, "star", runFig8Star},
			job{mb, "random-FEG", runFig8Random})
		for _, z := range zoneVariants {
			z := z
			jobs = append(jobs, job{mb, fmt.Sprintf("multizone-%dz", z),
				func(s fig8Spec) (map[float64]time.Duration, error) {
					return runFig8MultiZone(s, z)
				}})
		}
	}
	series, err := fanOut(o, len(jobs), func(i int) (*stats.Series, error) {
		j := jobs[i]
		spec := fig8Spec{nc: 8, f: 2, fullNodes: fullNodes, blockMB: j.mb, blocks: blocks, seed: o.seed()}
		cov, err := j.run(spec)
		if err != nil {
			return nil, err
		}
		return coverageSeries(j.name, cov), nil
	})
	if err != nil {
		return nil, err
	}
	var tables []*stats.Table
	idx := 0
	for _, mb := range blockSizes {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("Fig.8 propagation latency (ms) at %d MB blocks, %d full nodes", mb, fullNodes),
			XLabel: "%nodes",
		}
		perSize := 2 + len(zoneVariants)
		tbl.Series = append(tbl.Series, series[idx:idx+perSize]...)
		idx += perSize
		tables = append(tables, tbl)
	}
	return tables, nil
}

func coverageSeries(name string, cov map[float64]time.Duration) *stats.Series {
	s := &stats.Series{Name: name}
	for _, p := range propPercentiles {
		if d, ok := cov[p]; ok {
			s.Add(p, float64(d)/float64(time.Millisecond))
		}
	}
	return s
}
