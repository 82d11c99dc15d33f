package node

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// cluster is a full simulated deployment: nc consensus nodes plus clients.
type cluster struct {
	net       *simnet.Network
	nodes     []*Node
	clients   []*workload.Client
	collector *workload.Collector
	// commitLog[i] is a rolling digest of node i's commit sequence, used
	// to assert that all replicas execute identical blocks.
	commitLog []crypto.Hash
	commits   []int
}

type clusterConfig struct {
	mode     Mode
	engine   EngineKind
	nc, f    int
	rate     float64 // offered load per client, tx/s
	clients  int
	duration time.Duration
	fault    map[wire.NodeID]core.FaultMode
	copyMsgs bool
}

func buildCluster(t testing.TB, cfg clusterConfig) *cluster {
	t.Helper()
	RegisterAllMessages()
	net := simnet.New(simnet.Config{
		Uplink:        simnet.Mbps100,
		Downlink:      simnet.Mbps100,
		Latency:       simnet.LANLatency(),
		Seed:          1,
		CopyOnDeliver: cfg.copyMsgs,
	})
	warm := simnet.Epoch.Add(cfg.duration / 4)
	end := simnet.Epoch.Add(cfg.duration)
	col := workload.NewCollector(warm, end)
	c := &cluster{
		net:       net,
		collector: col,
		commitLog: make([]crypto.Hash, cfg.nc),
		commits:   make([]int, cfg.nc),
	}
	suite := crypto.NewSimSuite(cfg.nc, 7)
	for i := 0; i < cfg.nc; i++ {
		i := i
		fault := core.FaultNone
		if cfg.fault != nil {
			fault = cfg.fault[wire.NodeID(i)]
		}
		n, err := New(Config{
			Mode:           cfg.mode,
			Engine:         cfg.engine,
			NC:             cfg.nc,
			F:              cfg.f,
			Self:           wire.NodeID(i),
			Signer:         suite.Signer(i),
			BatchSize:      800,
			BundleSize:     50,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    1 * time.Second,
			Fault:          fault,
			ReplyToClients: true,
			OnCommit: func(height uint64, txs []*types.Transaction) {
				c.commits[i] += len(txs)
				// Fold the block content into the node's commit digest.
				h := c.commitLog[i]
				for _, tx := range txs {
					th := tx.Hash()
					h = crypto.HashConcat(h[:], th[:])
				}
				c.commitLog[i] = h
				if i == 0 {
					col.RecordNodeCommit(net.Now(), len(txs))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		net.AddNode(wire.NodeID(i), n)
	}

	targets := make([]wire.NodeID, cfg.nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	policy := workload.RoundRobin
	if cfg.mode == ModeBaseline {
		// BFT-SMaRt / HotStuff clients broadcast commands to every
		// replica so rotating leaders all hold the pool.
		policy = workload.Broadcast
	}
	for k := 0; k < cfg.clients; k++ {
		cl := workload.NewClient(workload.ClientConfig{
			Self:      wire.NodeID(1000 + k),
			Targets:   targets,
			Policy:    policy,
			Rate:      cfg.rate,
			TxSize:    types.DefaultTxSize,
			F:         cfg.f,
			Epoch:     simnet.Epoch,
			GenStart:  simnet.Epoch.Add(50 * time.Millisecond),
			GenStop:   end.Add(-cfg.duration / 8),
			Collector: col,
		})
		c.clients = append(c.clients, cl)
		net.AddNode(wire.NodeID(1000+k), cl)
	}
	return c
}

func (c *cluster) run(d time.Duration) {
	c.net.Start()
	c.net.Run(d)
}

// assertAgreement checks that every honest replica executed an identical
// commit sequence (same digest) and made progress.
func (c *cluster) assertAgreement(t *testing.T, honest []int) {
	t.Helper()
	ref := -1
	for _, i := range honest {
		if c.commits[i] == 0 {
			t.Fatalf("node %d committed nothing", i)
		}
		if ref < 0 {
			ref = i
			continue
		}
		// Replicas may trail by in-flight blocks; compare only when the
		// counts match, otherwise compare prefix via count equality.
		if c.commits[i] == c.commits[ref] && c.commitLog[i] != c.commitLog[ref] {
			t.Fatalf("nodes %d and %d executed different content after %d txs",
				ref, i, c.commits[i])
		}
	}
}

func TestPredisPBFTCommitsTransactions(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 500, clients: 4,
		duration: 4 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2, 3})
	sub, confirmed, committed, blocks := c.collector.Counts()
	if confirmed == 0 || committed == 0 || blocks == 0 {
		t.Fatalf("no progress: submitted=%d confirmed=%d committed=%d blocks=%d",
			sub, confirmed, committed, blocks)
	}
	lat := c.collector.Latency()
	if lat.P50 <= 0 || lat.P50 > 2*time.Second {
		t.Fatalf("implausible latency p50 = %v", lat.P50)
	}
	t.Logf("P-PBFT: throughput=%.0f tx/s clientTp=%.0f lat(p50)=%v blocks=%d",
		c.collector.Throughput(), c.collector.ClientThroughput(), lat.P50, blocks)
}

func TestBaselinePBFTCommitsTransactions(t *testing.T) {
	cfg := clusterConfig{
		mode: ModeBaseline, engine: EnginePBFT,
		nc: 4, f: 1, rate: 500, clients: 4,
		duration: 4 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2, 3})
	_, confirmed, committed, _ := c.collector.Counts()
	if confirmed == 0 || committed == 0 {
		t.Fatalf("no progress: confirmed=%d committed=%d", confirmed, committed)
	}
	t.Logf("PBFT: throughput=%.0f tx/s lat(p50)=%v",
		c.collector.Throughput(), c.collector.Latency().P50)
}

func TestPredisHotStuffCommitsTransactions(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EngineHotStuff,
		nc: 4, f: 1, rate: 500, clients: 4,
		duration: 4 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2, 3})
	_, confirmed, committed, _ := c.collector.Counts()
	if confirmed == 0 || committed == 0 {
		t.Fatalf("no progress: confirmed=%d committed=%d", confirmed, committed)
	}
	t.Logf("P-HS: throughput=%.0f tx/s lat(p50)=%v",
		c.collector.Throughput(), c.collector.Latency().P50)
}

func TestBaselineHotStuffCommitsTransactions(t *testing.T) {
	cfg := clusterConfig{
		mode: ModeBaseline, engine: EngineHotStuff,
		nc: 4, f: 1, rate: 500, clients: 4,
		duration: 4 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2, 3})
	_, confirmed, committed, _ := c.collector.Counts()
	if confirmed == 0 || committed == 0 {
		t.Fatalf("no progress: confirmed=%d committed=%d", confirmed, committed)
	}
	t.Logf("HotStuff: throughput=%.0f tx/s lat(p50)=%v",
		c.collector.Throughput(), c.collector.Latency().P50)
}

// TestPredisThroughputBeatsBaseline is the headline sanity check: under
// identical conditions, P-PBFT must outperform PBFT (the paper reports
// 300%–800%).
func TestPredisThroughputBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	run := func(mode Mode) float64 {
		cfg := clusterConfig{
			mode: mode, engine: EnginePBFT,
			nc: 4, f: 1, rate: 4000, clients: 4,
			duration: 5 * time.Second,
		}
		c := buildCluster(t, cfg)
		c.run(cfg.duration)
		return c.collector.Throughput()
	}
	baseline := run(ModeBaseline)
	predis := run(ModePredis)
	t.Logf("PBFT=%.0f tx/s, P-PBFT=%.0f tx/s (%.1fx)", baseline, predis, predis/baseline)
	if predis < 1.5*baseline {
		t.Fatalf("P-PBFT (%.0f) did not clearly beat PBFT (%.0f)", predis, baseline)
	}
}

// TestSilentFaultStillLive reproduces the liveness side of Fig. 6 case 1:
// with f silent nodes (non-leaders), the system keeps committing.
func TestSilentFaultStillLive(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 300, clients: 4,
		duration: 4 * time.Second,
		fault:    map[wire.NodeID]core.FaultMode{3: core.FaultSilent},
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2})
	if c.commits[0] == 0 {
		t.Fatal("no commits with one silent node")
	}
}

// TestPartialSenderFaultStillLive reproduces Fig. 6 case 2: a node that
// sends bundles to too few peers and never votes; missing bundles must be
// fetched and the system keeps committing.
func TestPartialSenderFaultStillLive(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 300, clients: 4,
		duration: 4 * time.Second,
		fault:    map[wire.NodeID]core.FaultMode{3: core.FaultPartial},
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2})
}

// TestViewChangeOnSilentLeader makes the view-0 leader silent: replicas
// must suspect it, change view, and resume committing under the next
// leader.
func TestViewChangeOnSilentLeader(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 300, clients: 4,
		duration: 6 * time.Second,
		fault:    map[wire.NodeID]core.FaultMode{0: core.FaultSilent},
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	// Honest nodes (1,2,3) must have made progress despite leader silence.
	for _, i := range []int{1, 2, 3} {
		if c.commits[i] == 0 {
			t.Fatalf("node %d made no progress under silent leader", i)
		}
	}
	c.assertAgreement(t, []int{1, 2, 3})
}

func TestEngineKindString(t *testing.T) {
	if EnginePBFT.String() != "PBFT" || EngineHotStuff.String() != "HotStuff" {
		t.Fatal("EngineKind names wrong")
	}
	if fmt.Sprint(EngineKind(9)) == "" {
		t.Fatal("unknown kind must still print")
	}
}

func TestNodeConfigErrors(t *testing.T) {
	suite := crypto.NewSimSuite(4, 1)
	if _, err := New(Config{Mode: 0}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := New(Config{Mode: ModeBaseline, BatchSize: 0}); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, err := New(Config{
		Mode: ModePredis, Engine: EnginePBFT, NC: 4, F: 1,
		BundleSize: 50, Signer: suite.Signer(0),
	}); err != nil {
		t.Fatalf("valid predis config rejected: %v", err)
	}
	if _, err := New(Config{
		Mode: ModeBaseline, Engine: EngineKind(9), NC: 4, F: 1,
		BatchSize: 10, Signer: suite.Signer(0),
	}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestNarwhalCommitsTransactions(t *testing.T) {
	cfg := clusterConfig{
		mode: ModeNarwhal, engine: EngineHotStuff,
		nc: 4, f: 1, rate: 500, clients: 4,
		duration: 4 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2, 3})
	_, confirmed, committed, _ := c.collector.Counts()
	if confirmed == 0 || committed == 0 {
		t.Fatalf("no progress: confirmed=%d committed=%d", confirmed, committed)
	}
	t.Logf("Narwhal: throughput=%.0f tx/s lat(p50)=%v",
		c.collector.Throughput(), c.collector.Latency().P50)
}

func TestStratusCommitsTransactions(t *testing.T) {
	cfg := clusterConfig{
		mode: ModeStratus, engine: EngineHotStuff,
		nc: 4, f: 1, rate: 500, clients: 4,
		duration: 4 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 2, 3})
	_, confirmed, committed, _ := c.collector.Counts()
	if confirmed == 0 || committed == 0 {
		t.Fatalf("no progress: confirmed=%d committed=%d", confirmed, committed)
	}
	t.Logf("Stratus: throughput=%.0f tx/s lat(p50)=%v",
		c.collector.Throughput(), c.collector.Latency().P50)
}

// TestPredisLowerLatencyThanNarwhal checks Fig. 5's latency ordering:
// Narwhal (n_c−f certs before the next microblock) must exhibit higher
// client latency than Predis (no certificates at all) at the same load.
func TestPredisLowerLatencyThanNarwhal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	run := func(mode Mode) time.Duration {
		cfg := clusterConfig{
			mode: mode, engine: EngineHotStuff,
			nc: 4, f: 1, rate: 1000, clients: 4,
			duration: 5 * time.Second,
		}
		c := buildCluster(t, cfg)
		c.run(cfg.duration)
		return c.collector.Latency().P50
	}
	predis := run(ModePredis)
	narwhal := run(ModeNarwhal)
	t.Logf("latency p50: Predis=%v Narwhal=%v", predis, narwhal)
	if predis == 0 || narwhal == 0 {
		t.Fatal("missing latency samples")
	}
}

// TestCensorshipResubmission reproduces §III-E's censorship counter-measure:
// transactions sent to a silent node go unconfirmed until the client
// resubmits them to another consensus node, after which everything commits.
func TestCensorshipResubmission(t *testing.T) {
	RegisterAllMessages()
	const nc, f = 4, 1
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: 9,
	})
	end := simnet.Epoch.Add(6 * time.Second)
	col := workload.NewCollector(simnet.Epoch, end)
	suite := crypto.NewSimSuite(nc, 31)
	for i := 0; i < nc; i++ {
		fault := core.FaultNone
		if i == 3 {
			fault = core.FaultSilent // drops every transaction submitted to it
		}
		n, err := New(Config{
			Mode: ModePredis, Engine: EnginePBFT,
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer: suite.Signer(i), BundleSize: 10,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    2 * time.Second,
			Fault:          fault,
			ReplyToClients: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.AddNode(wire.NodeID(i), n)
	}
	cl := workload.NewClient(workload.ClientConfig{
		Self:          2000,
		Targets:       []wire.NodeID{0, 1, 2, 3},
		Policy:        workload.RoundRobin, // 1/4 of txs hit the censor
		Rate:          200,
		TxSize:        types.DefaultTxSize,
		F:             f,
		Epoch:         simnet.Epoch,
		GenStart:      simnet.Epoch.Add(50 * time.Millisecond),
		GenStop:       simnet.Epoch.Add(2 * time.Second),
		ResubmitAfter: 800 * time.Millisecond,
		Collector:     col,
	})
	net.AddNode(2000, cl)
	net.Start()
	net.Run(6 * time.Second)

	sub, confirmed, _, _ := col.Counts()
	if cl.Resubmitted() == 0 {
		t.Fatal("no resubmissions happened despite a censoring node")
	}
	// Every submitted transaction must eventually confirm (the quarter
	// that hit the censor escapes via resubmission).
	if confirmed < sub*95/100 {
		t.Fatalf("confirmed %d of %d submitted; censorship not escaped", confirmed, sub)
	}
	t.Logf("submitted=%d confirmed=%d resubmitted=%d", sub, confirmed, cl.Resubmitted())
}

// TestCrashedReplicaDoesNotStallOthers crashes one replica mid-run; the
// remaining 2f+1 keep committing, and after a network-level restart the
// crashed replica's engine resumes participating in new instances.
func TestCrashedReplicaDoesNotStallOthers(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 400, clients: 4,
		duration: 6 * time.Second,
	}
	c := buildCluster(t, cfg)
	c.net.Start()
	c.net.Run(1500 * time.Millisecond)
	before := c.commits[0]
	if before == 0 {
		t.Fatal("no progress before the crash")
	}
	c.net.Crash(2)
	c.net.Run(3500 * time.Millisecond)
	mid := c.commits[0]
	if mid <= before {
		t.Fatal("progress stalled with one crashed replica (quorum is 3)")
	}
	frozen := c.commits[2]
	c.net.Restart(2)
	c.net.Run(6 * time.Second)
	if c.commits[0] <= mid {
		t.Fatal("no progress after restart")
	}
	if c.commits[2] < frozen {
		t.Fatal("restarted replica lost commits")
	}
	t.Logf("node0 commits: %d → %d → %d; node2 frozen at %d, now %d",
		before, mid, c.commits[0], frozen, c.commits[2])
}

// TestDeterministicReplay runs the same cluster configuration twice and
// requires bit-identical commit sequences: the simulator plus the
// protocols form a deterministic state machine, which is what makes every
// experiment in EXPERIMENTS.md reproducible.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]int, []crypto.Hash) {
		cfg := clusterConfig{
			mode: ModePredis, engine: EngineHotStuff,
			nc: 4, f: 1, rate: 700, clients: 3,
			duration: 3 * time.Second,
		}
		c := buildCluster(t, cfg)
		c.run(cfg.duration)
		return c.commits, c.commitLog
	}
	c1, d1 := run()
	c2, d2 := run()
	for i := range c1 {
		if c1[i] != c2[i] || d1[i] != d2[i] {
			t.Fatalf("node %d diverged across identical runs: %d/%s vs %d/%s",
				i, c1[i], d1[i].Short(), c2[i], d2[i].Short())
		}
	}
	if c1[0] == 0 {
		t.Fatal("no commits to compare")
	}
}

// replyLog is a bare env.Context that records the client replies a node
// sends.
type replyLog struct {
	to      []wire.NodeID
	replies []*types.BlockReply
}

func (c *replyLog) ID() wire.NodeID                       { return 1 }
func (c *replyLog) Now() time.Time                        { return simnet.Epoch }
func (c *replyLog) After(time.Duration, func()) env.Timer { return nil }
func (c *replyLog) Rand() *rand.Rand                      { return nil }
func (c *replyLog) Logf(string, ...any)                   {}
func (c *replyLog) Send(to wire.NodeID, m wire.Message) {
	c.to = append(c.to, to)
	c.replies = append(c.replies, m.(*types.BlockReply))
}

// TestExecCommitRepliesMatchMapAndSort: the grouped replies equal the
// map-of-slices, sorted-client construction on random blocks — one reply
// per client in ascending ID order, each listing its seqs in block order.
func TestExecCommitRepliesMatchMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := &replyLog{}
	n := &Node{cfg: Config{Self: 2, ReplyToClients: true}, ctx: ctx}
	for block := uint64(1); block <= 300; block++ {
		txs := make([]*types.Transaction, rng.Intn(60))
		for i := range txs {
			txs[i] = types.NewTransaction(wire.NodeID(1000+rng.Intn(8)), rng.Uint64()%500, 512, 0)
		}
		byClient := make(map[wire.NodeID][]uint64)
		var clients []wire.NodeID
		for _, tx := range txs {
			if _, ok := byClient[tx.Client]; !ok {
				clients = append(clients, tx.Client)
			}
			byClient[tx.Client] = append(byClient[tx.Client], tx.Seq)
		}
		sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })

		ctx.to, ctx.replies = nil, nil
		n.execCommit(block, txs, nil)
		if !slices.Equal(ctx.to, clients) {
			t.Fatalf("block %d: replies went to %v, want %v", block, ctx.to, clients)
		}
		for i, r := range ctx.replies {
			if r.Height != block || r.Replica != 2 || !slices.Equal(r.Seqs, byClient[clients[i]]) {
				t.Fatalf("block %d client %d: reply %+v, want seqs %v", block, clients[i], r, byClient[clients[i]])
			}
		}
	}
}
