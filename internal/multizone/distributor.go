package multizone

import (
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// Distributor is the consensus-node side of Multi-Zone (§IV-D): consensus
// node i erasure-codes every bundle it stores (its own and its peers') and
// sends stripe i to its subscribers — the relayers across all zones — and
// pushes each new Predis block to the same subscribers. Consensus
// bandwidth spent on full-node distribution is therefore one stripe per
// bundle plus one tiny block header per block, independent of the number
// of full nodes.
type Distributor struct {
	self    wire.NodeID
	nc      int
	striper *Striper
	ctx     env.Context

	subscribers map[wire.NodeID]bool
	lastSeen    map[wire.NodeID]time.Time
	// subsSorted memoizes the ascending-ID view of subscribers so the
	// per-bundle and per-block fan-outs do not re-sort an unchanged set;
	// any mutation of subscribers nils it (see subsChanged).
	subsSorted []wire.NodeID
	maxSubs    int
	// ttl expires subscribers that stopped heartbeating (0 disables); a
	// crashed relayer would otherwise receive stripes forever.
	ttl time.Duration

	// trace, when non-nil, anchors the stripe_distributed and
	// fullnode_delivered lifecycle stages at fan-out time (full nodes close
	// the spans on arrival/completion). Nil disables tracing at zero cost.
	trace *obs.Tracer

	// cacheSet avoids encoding this node's own bundle twice (StripeRoot
	// hook + dissemination); it serves the bundle whose header commits to
	// its Root.
	cacheSet *StripeSet

	// spec tracks speculative block pushes (streaming commit), keyed by
	// block hash. An entry exists once the block has been pushed via
	// ZoneSpec; discarded flips when the proposal was evicted and a
	// ZoneSpecDiscard retracted it. A later re-proposal of the same block
	// (discarded entry) is pushed again — exactly once per discard — so
	// full nodes that dropped the buffer recover the latency win.
	// Committed heights prune their entries in OnBlockCommit.
	spec map[crypto.Hash]*specState

	// stats
	stripesOut uint64
	blocksOut  uint64
	specOut    uint64
	discardOut uint64
	// unexpected counts non-zone-plane messages reaching the distributor.
	// Stripes only flow outward here, so a Byzantine peer cannot corrupt
	// consensus-side state — unexpected traffic is counted and ignored.
	unexpected uint64
}

// NewDistributor builds a distributor for consensus node self.
func NewDistributor(self wire.NodeID, nc int, striper *Striper, maxSubs int) *Distributor {
	if maxSubs <= 0 {
		maxSubs = 1 << 30 // consensus nodes accept every relayer by default
	}
	return &Distributor{
		self:        self,
		nc:          nc,
		striper:     striper,
		subscribers: make(map[wire.NodeID]bool),
		lastSeen:    make(map[wire.NodeID]time.Time),
		maxSubs:     maxSubs,
		spec:        make(map[crypto.Hash]*specState),
	}
}

// specState is the speculative-push state of one proposed block.
type specState struct {
	height    uint64
	discarded bool
}

// SetSubscriberTTL arms subscriber expiry: a subscriber not heard from for
// ttl (heartbeats count) is dropped before the next stripe/block fan-out.
// Zero disables expiry.
func (d *Distributor) SetSubscriberTTL(ttl time.Duration) { d.ttl = ttl }

// SetTrace arms lifecycle tracing (nil disables it).
func (d *Distributor) SetTrace(tr *obs.Tracer) { d.trace = tr }

// Start records the runtime context (call from the host's Start).
func (d *Distributor) Start(ctx env.Context) { d.ctx = ctx }

// Subscribers returns the current subscriber count.
func (d *Distributor) Subscribers() int { return len(d.subscribers) }

// Stats returns (stripes sent, blocks sent).
func (d *Distributor) Stats() (stripes, blocks uint64) { return d.stripesOut, d.blocksOut }

// SpecStats returns (speculative block pushes, discards sent).
func (d *Distributor) SpecStats() (specs, discards uint64) { return d.specOut, d.discardOut }

// Unexpected returns how many non-zone-plane messages reached this
// distributor (zero on benign runs).
func (d *Distributor) Unexpected() uint64 { return d.unexpected }

// StripeRoot implements core.Options.StripeRoot: encode the body, cache
// the shard set, and return the stripe Merkle root for the header.
func (d *Distributor) StripeRoot(txs []*types.Transaction) crypto.Hash {
	set, err := d.striper.Encode(txs)
	if err != nil {
		return crypto.ZeroHash
	}
	d.cacheSet = set
	return set.Root
}

// OnBundleStored implements core's bundle hook: ship our stripe of every
// bundle that enters the mempool (own or peer-produced) to subscribers.
func (d *Distributor) OnBundleStored(b *core.Bundle) {
	if d.ctx == nil || len(d.subscribers) == 0 {
		return
	}
	// Resolve the stripe set: the bundle-attached cache first (another
	// consensus node already encoded this exact bundle — encoding is
	// deterministic in Txs, so the shards are identical), then the local
	// StripeRoot-hook cache, then a fresh encode.
	set, _ := b.StripeCache().(*StripeSet)
	if set == nil && d.cacheSet != nil && d.cacheSet.Root == b.Header.StripeRoot {
		set = d.cacheSet
	}
	if set == nil {
		var err error
		set, err = d.striper.Encode(b.Txs)
		if err != nil {
			d.ctx.Logf("multizone: encode bundle: %v", err)
			return
		}
	}
	b.SetStripeCache(set)
	d.cacheSet = nil
	msg, err := set.Stripe(b.Header, int(d.self))
	if err != nil {
		d.ctx.Logf("multizone: stripe extract: %v", err)
		return
	}
	// Anchor the stripe_distributed stage at first fan-out (earliest mark
	// wins across consensus nodes); full nodes close the span when the
	// bundle enters their store.
	d.trace.Mark(obs.StageStripeDistributed,
		obs.BundleKey(b.Header.Producer, b.Header.Height), d.ctx.Now())
	for _, id := range d.liveSubscribers() {
		d.ctx.Send(id, msg)
		d.stripesOut++
	}
}

// OnBlockPropose implements the node's streaming-commit proposal hook:
// push the proposed block to subscribers speculatively, before the
// consensus decision, so full nodes can pre-fetch and pre-validate. The
// same block may be observed many times (every replica validates it,
// re-proposals after a view change revisit it); the spec map dedupes so
// each block is pushed once per proposal lifetime — and exactly once
// more after a discard retracted it.
func (d *Distributor) OnBlockPropose(blk *core.PredisBlock) {
	if d.ctx == nil {
		return
	}
	h := blk.Hash()
	if st, ok := d.spec[h]; ok && !st.discarded {
		return
	}
	d.spec[h] = &specState{height: blk.Height}
	// Anchor the spec_distributed stage at first speculative push
	// (earliest mark wins across consensus nodes); full nodes open the
	// span on arrival and close it when the ordered block finalizes the
	// buffer — or Discard it when the proposal is retracted.
	d.trace.Mark(obs.StageSpecDistributed, obs.BlockKey(blk.Height), d.ctx.Now())
	msg := &ZoneSpec{Block: blk}
	for _, id := range d.liveSubscribers() {
		d.ctx.Send(id, msg)
		d.specOut++
	}
}

// OnBlockEvict implements the node's streaming-commit eviction hook: the
// consensus engine abandoned the proposal (view change, fork loss), so
// retract the speculative push. Only blocks actually pushed — and not
// already retracted — produce a discard, so full nodes never see a
// discard for a block they were never sent.
func (d *Distributor) OnBlockEvict(blk *core.PredisBlock) {
	if d.ctx == nil {
		return
	}
	h := blk.Hash()
	st, ok := d.spec[h]
	if !ok || st.discarded {
		return
	}
	st.discarded = true
	msg := &ZoneSpecDiscard{Height: blk.Height, Hash: h}
	for _, id := range d.liveSubscribers() {
		d.ctx.Send(id, msg)
		d.discardOut++
	}
}

// OnBlockCommit pushes a committed Predis block to subscribers.
func (d *Distributor) OnBlockCommit(blk *core.PredisBlock) {
	if d.ctx == nil {
		return
	}
	// Speculative pushes at or below the committed height are settled:
	// full nodes resolve them against the ordered block, so the dedupe
	// entries can go.
	for h, st := range d.spec {
		if st.height <= blk.Height {
			delete(d.spec, h)
		}
	}
	msg := &ZoneBlock{Block: blk}
	// Anchor the fullnode_delivered stage at block push time; full nodes
	// close the span when they assemble the block's transactions.
	d.trace.Mark(obs.StageFullNodeDelivered,
		obs.BlockKey(blk.Height), d.ctx.Now())
	for _, id := range d.liveSubscribers() {
		d.ctx.Send(id, msg)
		d.blocksOut++
	}
}

// subsChanged invalidates the memoized sorted-subscriber view; every
// mutation of d.subscribers must call it.
func (d *Distributor) subsChanged() { d.subsSorted = nil }

// liveSubscribers expires stale subscribers (when a TTL is set) and
// returns the survivors in ascending ID order, so map iteration never
// affects wire traffic. The sorted view is memoized across calls: fan-out
// runs once per bundle and once per block, so rebuilding it only when the
// subscriber set actually changes removes an alloc+sort from the hot
// path. Callers must not retain or mutate the returned slice.
func (d *Distributor) liveSubscribers() []wire.NodeID {
	if d.ttl > 0 {
		now := d.ctx.Now()
		for id := range d.subscribers {
			if seen, ok := d.lastSeen[id]; ok && now.Sub(seen) > d.ttl {
				delete(d.subscribers, id)
				delete(d.lastSeen, id)
				d.subsChanged()
			}
		}
	}
	if d.subsSorted == nil {
		out := make([]wire.NodeID, 0, len(d.subscribers))
		for id := range d.subscribers {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		d.subsSorted = out
	}
	return d.subsSorted
}

// Receive handles zone-plane control messages addressed to the consensus
// node (subscribe/unsubscribe from relayers).
func (d *Distributor) Receive(from wire.NodeID, m wire.Message) {
	d.lastSeen[from] = d.ctx.Now()
	switch msg := m.(type) {
	case *Subscribe:
		d.onSubscribe(from, msg)
	case *Unsubscribe:
		delete(d.subscribers, from)
		d.subsChanged()
	case *Heartbeat:
		// Liveness only.
	default:
		// Consensus nodes ignore other zone-plane traffic.
		d.unexpected++
	}
}

func (d *Distributor) onSubscribe(from wire.NodeID, m *Subscribe) {
	// A consensus node serves exactly its own stripe index.
	serves := false
	for _, s := range m.Stripes {
		if wire.NodeID(s) == d.self {
			serves = true
			break
		}
	}
	if !serves {
		d.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes})
		return
	}
	if len(d.subscribers) >= d.maxSubs && !d.subscribers[from] {
		children := d.liveSubscribers()
		if len(children) > 4 {
			children = children[:4]
		}
		d.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes, Children: children})
		return
	}
	d.subscribers[from] = true
	d.subsChanged()
	d.ctx.Send(from, &AcceptSubscribe{
		Stripes:       []uint8{uint8(d.self)},
		FromConsensus: true,
	})
}
