package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/faults"
	"predis/internal/harness"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// Deployment shape shared by every workload: the paper's consensus group
// of four with one fault, two zones of three full nodes with one
// cross-zone backup each, and 32 open-loop clients.
const (
	nc, f          = 4, 1
	zones, perZone = 2, 3
	// Many clients, each with its own seed-drawn start phase, average
	// out where arrivals fall against the producers' bundle ticks; with
	// four, tail latency moves by up to a tenth from seed to seed.
	clients = 32
	// oneWay is the injected one-way LAN delay between any two nodes.
	oneWay = 25 * time.Millisecond
	// genesis is every account's starting balance; against the transfer
	// amount below it lets hot Zipf accounts drain into deterministic
	// aborts within a run.
	genesis  = 1000
	amount   = 50
	joinStep = 20 * time.Millisecond
	// warmup is skipped after the join window before commits and
	// confirmations count.
	warmup = time.Second
	// settle is how long before the end of the run a height must have
	// committed for every full node to be expected to hold it.
	settle = time.Second
	// chunk is the virtual-time slice Network.Run is driven in; between
	// slices the runner samples the heap and checks its wall budget.
	chunk = 100 * time.Millisecond
)

// joinWindow is when the last full node has joined and clients start.
var joinWindow = time.Duration(zones*perZone)*joinStep + 200*time.Millisecond

// Workload is one benchmark workload: a deployment and its load.
type Workload struct {
	Name   string
	Engine node.EngineKind
	// Stream selects streaming commit with a PBFT window of Pipeline.
	Stream   bool
	Pipeline int
	// BundleInterval is the Predis producer seal interval.
	BundleInterval time.Duration
	ViewTimeout    time.Duration
	// Rates is the ladder of offered loads in tx/s, run one after the
	// other in separate deployments; Ref indexes the rung whose latency
	// and throughput are the workload's end-to-end numbers.
	Rates []float64
	Ref   int
	// Gen is how long clients generate after the join window; Drain is
	// how long the run continues after generation stops.
	Gen, Drain time.Duration
	// Zipf attaches semantic transfers drawn from zipf0.9-1024.
	Zipf bool
	// CrashFrom/CrashTo crash consensus node 0 (the view-0 leader) for
	// that window when CrashTo > 0.
	CrashFrom, CrashTo time.Duration
	// ResubmitAfter re-sends unconfirmed transactions (0 disables).
	ResubmitAfter time.Duration
}

// SLO is the confirmation-latency limit on p99 for max_tps_at_slo.
const (
	sloP99         = time.Second
	sloUnconfirmed = 0.01
)

var workloads = []*Workload{
	{
		Name: "mz-block", Engine: node.EngineHotStuff,
		BundleInterval: 20 * time.Millisecond, ViewTimeout: 2 * time.Second,
		Rates: []float64{4000, 8000, 12000, 16000}, Ref: 1,
		Gen: 6 * time.Second, Drain: 2 * time.Second,
	},
	{
		Name: "mz-stream-zipf", Engine: node.EnginePBFT,
		Stream: true, Pipeline: 16,
		BundleInterval: 50 * time.Millisecond, ViewTimeout: time.Second,
		Rates: []float64{2000}, Gen: 6500 * time.Millisecond, Drain: 2 * time.Second,
		Zipf: true,
	},
	{
		Name: "mz-leader-crash", Engine: node.EnginePBFT,
		BundleInterval: 20 * time.Millisecond, ViewTimeout: time.Second,
		Rates: []float64{4000}, Gen: 9 * time.Second, Drain: 3 * time.Second,
		CrashFrom: 4 * time.Second, CrashTo: 7 * time.Second,
		ResubmitAfter: time.Second,
	},
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deployment is one built, not yet run, simulated network.
type deployment struct {
	w       *Workload
	rate    float64
	net     *simnet.Network
	hosts   []*multizone.ConsensusHost
	fulls   []*multizone.FullNode
	clients []*workload.Client
	book    *book
	spans   *spanTable // nil when untraced
	tracer  *obs.Tracer
	horizon time.Duration
	genStop time.Duration
}

func fullID(z, k int) wire.NodeID { return wire.NodeID(100 + z*100 + k) }

func clientID(k int) wire.NodeID { return wire.NodeID(5000 + k) }

// build wires one deployment of w at the given offered rate. With traced
// set, every handler is wrapped in a timing span and the configs carry
// a tracer; nothing else differs, which the replay hash checks.
func build(w *Workload, rate float64, seed int64, traced bool, replay *harness.ReplayTrace) (*deployment, error) {
	node.RegisterAllMessages()
	multizone.RegisterMessages()

	d := &deployment{w: w, rate: rate}
	d.genStop = joinWindow + w.Gen
	d.horizon = d.genStop + w.Drain
	d.net = simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(oneWay),
		Seed:    seed,
	})
	d.book = newBook(nc, zones*perZone, simnet.Epoch.Add(joinWindow+warmup),
		simnet.Epoch.Add(d.genStop), simnet.Epoch.Add(d.horizon+chunk))
	d.net.OnDeliver = d.book.observe
	replay.Attach(d.net)
	if traced {
		d.spans = newSpanTable()
		d.tracer = obs.NewTracer(simnet.Epoch)
	}
	add := func(id wire.NodeID, r role, h env.Handler) {
		if d.spans != nil {
			h = &spanned{inner: h, role: r, spans: d.spans}
		}
		d.net.AddNode(id, h)
	}

	suite := crypto.NewSimSuite(nc, uint64(seed)+7)
	striper, err := multizone.NewStriper(nc, f)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		i := i
		host, err := multizone.NewConsensusHost(multizone.HostConfig{
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         w.Engine,
			BundleSize:     50,
			BundleInterval: w.BundleInterval,
			ViewTimeout:    w.ViewTimeout,
			Stream:         w.Stream,
			Pipeline:       w.Pipeline,
			Striper:        striper,
			ReplyToClients: true,
			Trace:          d.tracer,
			Executor:       exec.NewMachine(genesis),
			OnExecute:      func(r exec.Result) { d.book.hostExecuted(i, r) },
			OnCommit: func(height uint64, txs int) {
				d.book.hostCommitted(i, height, txs, d.net.Now())
			},
		})
		if err != nil {
			return nil, err
		}
		d.hosts = append(d.hosts, host)
		add(wire.NodeID(i), roleHost, host)
	}

	join := 0
	for z := 0; z < zones; z++ {
		for k := 0; k < perZone; k++ {
			slot := join
			var peers []wire.NodeID
			for p := 0; p < perZone; p++ {
				if p != k {
					peers = append(peers, fullID(z, p))
				}
			}
			fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
				Self: fullID(z, k), Zone: z, JoinSeq: uint64(join),
				NC: nc, F: f,
				Striper:        striper,
				Signer:         suite.Signer(0),
				ZonePeers:      peers,
				BackupPeers:    []wire.NodeID{fullID((z+1)%zones, k)},
				AliveInterval:  300 * time.Millisecond,
				DigestInterval: 2 * time.Second,
				Trace:          d.tracer,
				Executor:       exec.NewMachine(genesis),
				OnExecute:      func(r exec.Result) { d.book.fullExecuted(slot, r) },
				OnBlockComplete: func(blk *core.PredisBlock, txs int) {
					d.book.fullCompleted(slot, blk.Height, txs, d.net.Now())
				},
			})
			if err != nil {
				return nil, err
			}
			d.fulls = append(d.fulls, fn)
			add(fullID(z, k), roleFull, &multizone.Delayed{Inner: fn, Delay: time.Duration(join) * joinStep})
			join++
		}
	}

	if w.CrashTo > 0 {
		d.book.crashAt = simnet.Epoch.Add(w.CrashFrom)
		faults.Install(d.net, faults.Schedule{Seed: seed, Actions: []faults.Action{
			faults.CrashWindow{Node: 0, From: w.CrashFrom, To: w.CrashTo},
		}})
	}

	targets := make([]wire.NodeID, nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	var ops func(wire.NodeID, uint64) types.Op
	if w.Zipf {
		ops = workload.NewZipfOps(workload.ZipfConfig{
			Accounts: 1024, Theta: 0.9, RMWFrac: 0.1,
			Amount: amount, Seed: uint64(seed),
		}).Op
	}
	// The seed draws each client's start phase within one generation
	// tick, so arrivals interleave differently from seed to seed.
	phases := rand.New(rand.NewSource(seed))
	const tick = 10 * time.Millisecond
	for k := 0; k < clients; k++ {
		start := joinWindow + time.Duration(phases.Int63n(int64(tick)))
		cl := workload.NewClient(workload.ClientConfig{
			Self:          clientID(k),
			Targets:       targets,
			Policy:        workload.RoundRobin,
			Rate:          rate / clients,
			TxSize:        types.DefaultTxSize,
			F:             f,
			Epoch:         simnet.Epoch,
			GenStart:      simnet.Epoch.Add(start),
			GenStop:       simnet.Epoch.Add(d.genStop),
			Tick:          tick,
			ResubmitAfter: w.ResubmitAfter,
			Collector:     d.book.col,
			Trace:         d.tracer,
			Ops:           ops,
		})
		d.clients = append(d.clients, cl)
		add(clientID(k), roleClient, cl)
	}
	d.net.Start()
	return d, nil
}

// hostClock is what one rung cost the host.
type hostClock struct {
	wall    time.Duration // inside Network.Run
	events  int
	allocs  uint64 // heap objects allocated inside Run
	bytes   uint64 // heap bytes allocated inside Run
	gcCPU   float64
	cpu     float64
	heapMax uint64 // highest live heap seen between chunks
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() (allocs, bytes uint64, gcCPU, cpu float64, live uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64(), s[4].Value.Uint64()
}

// run drives the network to its horizon in chunks, failing if the host
// spends more than budget on it or the hosts disagree.
func (d *deployment) run(budget time.Duration) (hostClock, error) {
	var hc hostClock
	a0, b0, g0, c0, _ := readRuntime()
	for at := time.Duration(0); at < d.horizon; {
		at = min(at+chunk, d.horizon)
		start := time.Now()
		hc.events += d.net.Run(at)
		hc.wall += time.Since(start)
		if err := d.book.err(); err != nil {
			return hc, err
		}
		if hc.wall > budget {
			return hc, fmt.Errorf("%s at %.0f tx/s: host time over %v at virtual %v", d.w.Name, d.rate, budget, at)
		}
		if _, _, _, _, live := readRuntime(); live > hc.heapMax {
			hc.heapMax = live
		}
	}
	a1, b1, g1, c1, _ := readRuntime()
	hc.allocs, hc.bytes, hc.gcCPU, hc.cpu = a1-a0, b1-b0, g1-g0, c1-c0
	return hc, nil
}
