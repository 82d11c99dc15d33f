package workload

import (
	"math"
	"time"

	"predis/internal/env"
	"predis/internal/types"
	"predis/internal/wire"
)

// FlowConfig parameterizes an aggregated client flow.
type FlowConfig struct {
	// Self is the flow's wire node ID: every transaction is submitted
	// from this node.
	Self wire.NodeID
	// Target is the consensus node every transaction is submitted to.
	Target wire.NodeID
	// Rate is the aggregate offered load of the whole flow in tx/s.
	Rate float64
	// TxSize is the transaction wire size (paper: 512 B).
	TxSize uint32
	// Epoch anchors Transaction.Submitted timestamps.
	Epoch time.Time
	// GenStart and GenStop bound transaction generation.
	GenStart, GenStop time.Time
	// Tick is the batching granularity (default 10ms): each tick submits
	// one Poisson draw's worth of transactions in a single event instead
	// of arming one timer per logical client.
	Tick time.Duration
	// Seed drives the flow's splitmix64 stream. Two flows with equal
	// config and Seed generate identical transaction sequences.
	Seed uint64
}

// Flow is an aggregated open-loop generator: one env.Handler (one node,
// one timer) standing in for thousands of logical clients that submit to
// one target and never wait for replies. Arrivals are Poisson with the
// configured aggregate rate, drawn from a private splitmix64 stream. The
// flow keeps no per-transaction state: a transaction is (Self, seq) on the
// wire and is forgotten once sent.
//
// Per-logical-client generators cost one timer event per client per tick
// — 10⁵ clients at 10 ms ticks is 10⁷ events per simulated second before
// any transaction flows. A Flow costs one event per tick total, which is
// what makes 10⁴–10⁵-node populations simulable (ROADMAP 3a).
type Flow struct {
	cfg FlowConfig
	ctx env.Context
	rng uint64 // splitmix64 state
	seq uint64 // global wire sequence (tx identity is (Self, seq))
}

var _ env.Handler = (*Flow)(nil)

// NewFlow builds an aggregated flow.
func NewFlow(cfg FlowConfig) *Flow {
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	return &Flow{
		cfg: cfg,
		rng: cfg.Seed ^ (uint64(cfg.Self)+1)*0x9e3779b97f4a7c15,
	}
}

// Start implements env.Handler.
func (f *Flow) Start(ctx env.Context) {
	f.ctx = ctx
	delay := f.cfg.GenStart.Sub(ctx.Now())
	if delay < 0 {
		delay = 0
	}
	ctx.After(delay, f.tick)
}

// tick submits one Poisson draw's worth of transactions and re-arms while
// generation is open.
func (f *Flow) tick() {
	now := f.ctx.Now()
	if now.After(f.cfg.GenStop) {
		return
	}
	n := poisson(&f.rng, f.cfg.Rate*f.cfg.Tick.Seconds())
	for i := 0; i < n; i++ {
		// One stream draw per transaction once picked the logical client
		// it was attributed to. The draw stays so the Poisson arrivals —
		// and every scale result built on them — keep their stream.
		nextRand(&f.rng)
		f.seq++
		tx := types.NewTransaction(f.cfg.Self, f.seq, f.cfg.TxSize, now.Sub(f.cfg.Epoch))
		f.ctx.Send(f.cfg.Target, &types.SubmitTx{Tx: tx, Target: f.cfg.Target})
	}
	f.ctx.After(f.cfg.Tick, f.tick)
}

// Receive implements env.Handler. A flow never waits for confirmation,
// so it ignores every message, replies included.
func (f *Flow) Receive(wire.NodeID, wire.Message) {}

// nextRand advances the stream state by the golden-ratio increment and
// mixes it through the SplitMix64 finalizer (shared with zipf.go) — the
// standard SplitMix64 generator: one multiply-xor chain per draw, fully
// reproducible from a single word of state.
func nextRand(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return splitmix64(*state)
}

// unit maps one stream draw to a uniform in [0, 1).
func unit(state *uint64) float64 {
	return float64(nextRand(state)>>11) / (1 << 53)
}

// poisson draws from Poisson(lambda) using Knuth's product method on the
// splitmix64 stream, chunking large lambda so exp(-lambda) never
// underflows. Deterministic given the stream state.
func poisson(state *uint64, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	n := 0
	for lambda > 0 {
		chunk := lambda
		if chunk > 30 {
			chunk = 30
		}
		lambda -= chunk
		limit := math.Exp(-chunk)
		p := 1.0
		for {
			p *= unit(state)
			if p <= limit {
				break
			}
			n++
		}
	}
	return n
}
