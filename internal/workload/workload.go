// Package workload provides open-loop transaction generators (clients) and
// the measurement collector used by every throughput/latency experiment.
//
// A client is an env.Handler: it generates transactions at a configured
// rate, submits them to consensus nodes, and counts a transaction as
// confirmed once f+1 distinct replicas reply (the standard BFT client
// rule). Latency is submit → (f+1)-th reply, matching §V-A's definition:
// "the time elapsed from when a client sends a transaction to replicas to
// when the client receives a reply".
//
// A Flow is the population-scale generator: one handler offering the
// Poisson load of thousands of logical clients to a single target. It
// neither waits for nor counts replies, so it measures offered load, not
// confirmation latency.
package workload

import (
	"time"

	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// Collector aggregates measurements across clients and nodes. All methods
// are called from the simulator's single goroutine, so no locking is
// needed.
type Collector struct {
	// WarmupEnd and MeasureEnd bound the measurement window.
	WarmupEnd, MeasureEnd time.Time

	latencies []time.Duration
	confirmed int
	submitted int

	// nodeCommitted counts transactions committed at the observer node
	// within the window (consensus-side throughput).
	nodeCommitted int
	blocks        int
}

// NewCollector builds a collector measuring inside [warmupEnd, measureEnd].
func NewCollector(warmupEnd, measureEnd time.Time) *Collector {
	return &Collector{WarmupEnd: warmupEnd, MeasureEnd: measureEnd}
}

func (c *Collector) inWindow(at time.Time) bool {
	return !at.Before(c.WarmupEnd) && at.Before(c.MeasureEnd)
}

// RecordSubmit notes a submitted transaction.
func (c *Collector) RecordSubmit(at time.Time) {
	if c.inWindow(at) {
		c.submitted++
	}
}

// RecordConfirm notes a client-confirmed transaction (f+1 replies).
func (c *Collector) RecordConfirm(submitted, done time.Time) {
	if c.inWindow(done) {
		c.confirmed++
		c.latencies = append(c.latencies, done.Sub(submitted))
	}
}

// RecordNodeCommit notes txs committed at the observer node.
func (c *Collector) RecordNodeCommit(at time.Time, txs int) {
	if c.inWindow(at) {
		c.nodeCommitted += txs
		c.blocks++
	}
}

// Window returns the measurement window length.
func (c *Collector) Window() time.Duration { return c.MeasureEnd.Sub(c.WarmupEnd) }

// Throughput returns consensus-side throughput in tx/s.
func (c *Collector) Throughput() float64 {
	return stats.Throughput(c.nodeCommitted, c.Window())
}

// ClientThroughput returns client-confirmed throughput in tx/s.
func (c *Collector) ClientThroughput() float64 {
	return stats.Throughput(c.confirmed, c.Window())
}

// Latency summarizes client-observed latencies.
func (c *Collector) Latency() stats.Summary { return stats.Summarize(c.latencies) }

// Counts returns (submitted, confirmed, node-committed, blocks) within the
// window.
func (c *Collector) Counts() (submitted, confirmed, committed, blocks int) {
	return c.submitted, c.confirmed, c.nodeCommitted, c.blocks
}

// TargetPolicy selects how a client spreads transactions over consensus
// nodes.
type TargetPolicy int

// Target policies.
const (
	// RoundRobin spreads transactions across all targets — the natural
	// policy for Predis, where every consensus node packs bundles.
	RoundRobin TargetPolicy = iota + 1
	// FirstOnly submits everything to the first target — the natural
	// policy for baseline leader-based protocols, where only the leader
	// packs blocks.
	FirstOnly
	// Broadcast submits every transaction to all targets, the behaviour
	// of BFT-SMaRt and HotStuff clients: with rotating leaders every
	// replica needs the command in its pool. Replicas dedupe at commit.
	Broadcast
)

// ClientConfig parameterizes a client.
type ClientConfig struct {
	// Self is the client's node ID (distinct from consensus IDs).
	Self wire.NodeID
	// Targets are the consensus nodes to submit to.
	Targets []wire.NodeID
	// Policy selects the target distribution.
	Policy TargetPolicy
	// Rate is the offered load in tx/s.
	Rate float64
	// TxSize is the transaction wire size (paper: 512 B).
	TxSize uint32
	// F is the fault bound; confirmation needs F+1 matching replies.
	F int
	// Epoch anchors Transaction.Submitted timestamps.
	Epoch time.Time
	// GenStart and GenStop bound transaction generation.
	GenStart, GenStop time.Time
	// Tick is the generation granularity (default 10ms).
	Tick time.Duration
	// ResubmitAfter, when positive, re-sends a still-unconfirmed
	// transaction to a different consensus node after the given age — the
	// paper's censorship-attack counter-measure (§III-E: a transaction is
	// packed after at most f+1 attempts). Zero disables resubmission.
	ResubmitAfter time.Duration
	// Collector receives measurements (may be nil).
	Collector *Collector
	// Trace, when non-nil, receives the submit-stage anchor for every
	// transaction (closed by the receiving consensus node). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
	// Ops, when non-nil, attaches a semantic operation to every generated
	// transaction (see types.Op and internal/exec); it must be a pure
	// function of its arguments so generation stays deterministic. Nil
	// keeps transactions opaque payloads.
	Ops func(client wire.NodeID, seq uint64) types.Op
}

// Client is an open-loop transaction generator.
type Client struct {
	cfg  ClientConfig
	ctx  env.Context
	seq  uint64
	next int // round-robin cursor
	frac float64

	pending   map[uint64]*pendingTx
	resubmits uint64

	// Resubmission deadline index (only populated when ResubmitAfter > 0).
	// Every pending transaction has exactly one live entry across the two
	// queues: dueQ orders not-yet-overdue entries by (deadline, seq) and
	// readyQ holds overdue ones by seq, so each tick touches only due
	// entries instead of scanning and sorting the whole pending set.
	// Entries for confirmed transactions go stale in place and are
	// discarded lazily on pop (the pending lookup fails).
	dueQ   []dueEntry
	readyQ []uint64
}

type pendingTx struct {
	tx        *types.Transaction
	submitted time.Time
	lastSent  time.Time
	target    int // index into Targets of the last submission
	resubmits int
	replies   []wire.NodeID // distinct repliers so far (quorum is small: F+1)
	done      bool
}

// addReply records a distinct replier. The quorum is tiny (F+1), so a
// linear scan over a lazily grown slice beats a per-transaction map both
// in allocation count and in lookup cost.
func (p *pendingTx) addReply(id wire.NodeID) {
	for _, r := range p.replies {
		if r == id {
			return
		}
	}
	p.replies = append(p.replies, id)
}

var _ env.Handler = (*Client)(nil)

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.Policy == 0 {
		cfg.Policy = RoundRobin
	}
	return &Client{cfg: cfg, pending: make(map[uint64]*pendingTx)}
}

// Submitted returns the number of transactions sent so far.
func (c *Client) Submitted() uint64 { return c.seq }

// PendingCount returns in-flight (unconfirmed) transactions.
func (c *Client) PendingCount() int { return len(c.pending) }

// Resubmitted returns how many censorship-escape resubmissions happened.
func (c *Client) Resubmitted() uint64 { return c.resubmits }

// Start implements env.Handler.
func (c *Client) Start(ctx env.Context) {
	c.ctx = ctx
	delay := c.cfg.GenStart.Sub(ctx.Now())
	if delay < 0 {
		delay = 0
	}
	ctx.After(delay, c.tick)
}

// tick generates the current interval's transactions and re-arms. When
// resubmission is enabled, the ticker also outlives generation so stuck
// transactions keep escaping to other nodes.
func (c *Client) tick() {
	now := c.ctx.Now()
	generating := !now.After(c.cfg.GenStop)
	if generating {
		c.frac += c.cfg.Rate * c.cfg.Tick.Seconds()
		n := int(c.frac)
		c.frac -= float64(n)
		for i := 0; i < n; i++ {
			c.submitOne(now)
		}
	}
	if c.cfg.ResubmitAfter > 0 {
		c.resubmitOverdue(now)
	}
	if generating || (c.cfg.ResubmitAfter > 0 && len(c.pending) > 0) {
		c.ctx.After(c.cfg.Tick, c.tick)
	}
}

// resubmitOverdue re-sends unconfirmed transactions to the next consensus
// node (§III-E): with at most f faulty nodes, f+1 attempts reach an honest
// packer. A few per tick bounds the extra load. The deadline index makes
// each tick O(due + resubmitted · log pending) instead of an O(pending)
// scan-and-sort: entries whose deadline has passed migrate from dueQ to
// readyQ, and the perTick resubmissions pop readyQ in ascending sequence
// order — exactly the "smallest seqs among the overdue, oldest first"
// order the scan produced, and never map order (predis-lint: determinism).
func (c *Client) resubmitOverdue(now time.Time) {
	const perTick = 8
	for len(c.dueQ) > 0 && !c.dueQ[0].at.After(now) {
		e := duePop(&c.dueQ)
		if p, ok := c.pending[e.seq]; ok && !p.done {
			seqPush(&c.readyQ, e.seq)
		}
	}
	count := 0
	for count < perTick && len(c.readyQ) > 0 {
		seq := seqPop(&c.readyQ)
		p, ok := c.pending[seq]
		if !ok || p.done {
			continue // confirmed while waiting in the ready queue
		}
		p.target = (p.target + 1) % len(c.cfg.Targets)
		p.lastSent = now
		p.resubmits++
		c.resubmits++
		target := c.cfg.Targets[p.target]
		c.ctx.Send(target, &types.SubmitTx{Tx: p.tx, Target: target})
		duePush(&c.dueQ, dueEntry{at: now.Add(c.cfg.ResubmitAfter), seq: seq})
		count++
	}
}

func (c *Client) submitOne(now time.Time) {
	c.seq++
	tx := types.NewTransaction(c.cfg.Self, c.seq, c.cfg.TxSize, now.Sub(c.cfg.Epoch))
	if c.cfg.Ops != nil {
		tx.WithOp(c.cfg.Ops(c.cfg.Self, c.seq))
	}
	p := &pendingTx{
		tx:        tx,
		submitted: now,
		lastSent:  now,
	}
	c.pending[c.seq] = p
	if c.cfg.ResubmitAfter > 0 {
		duePush(&c.dueQ, dueEntry{at: now.Add(c.cfg.ResubmitAfter), seq: c.seq})
	}
	// Anchor the submit stage; the first consensus node to receive the
	// transaction closes the span (earliest mark wins, so broadcast and
	// resubmission never distort it).
	c.cfg.Trace.Mark(obs.StageSubmit, obs.TxKey(c.cfg.Self, c.seq), now)
	switch c.cfg.Policy {
	case Broadcast:
		for _, target := range c.cfg.Targets {
			c.ctx.Send(target, &types.SubmitTx{Tx: tx, Target: target})
		}
	case RoundRobin:
		p.target = c.next % len(c.cfg.Targets)
		c.next++
		target := c.cfg.Targets[p.target]
		c.ctx.Send(target, &types.SubmitTx{Tx: tx, Target: target})
	default: // FirstOnly
		c.ctx.Send(c.cfg.Targets[0], &types.SubmitTx{Tx: tx, Target: c.cfg.Targets[0]})
	}
	if c.cfg.Collector != nil {
		c.cfg.Collector.RecordSubmit(now)
	}
}

// Receive implements env.Handler: count replies toward the f+1 quorum.
func (c *Client) Receive(from wire.NodeID, m wire.Message) {
	reply, ok := m.(*types.BlockReply)
	if !ok {
		return
	}
	now := c.ctx.Now()
	for _, seq := range reply.Seqs {
		p, ok := c.pending[seq]
		if !ok || p.done {
			continue
		}
		p.addReply(reply.Replica)
		if len(p.replies) >= c.cfg.F+1 {
			p.done = true
			if c.cfg.Collector != nil {
				c.cfg.Collector.RecordConfirm(p.submitted, now)
			}
			delete(c.pending, seq)
		}
	}
}
