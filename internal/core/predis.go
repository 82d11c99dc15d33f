package core

import (
	"errors"
	"fmt"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// FaultMode selects a Byzantine behaviour for fault-injection experiments
// (Fig. 6).
type FaultMode int

// Fault modes.
const (
	// FaultNone is honest behaviour.
	FaultNone FaultMode = iota
	// FaultSilent reproduces Fig. 6 case 1: the node neither produces
	// bundles nor votes.
	FaultSilent
	// FaultPartial reproduces Fig. 6 case 2: the node refuses to vote and
	// sends each bundle to a random subset of n_c−f−1 peers, so the
	// remaining nodes must fetch the missing bundles.
	FaultPartial
)

// Options configures a Predis instance (the active component wrapping a
// Mempool).
type Options struct {
	// Params are the data-structure parameters.
	Params Params
	// Self is this consensus node's ID (= chain index).
	Self wire.NodeID
	// Peers lists all consensus node IDs, including Self.
	Peers []wire.NodeID
	// OnCommit, when non-nil, receives every committed block in order.
	OnCommit func(CommitInfo)
	// StripeRoot, when non-nil, computes the stripe Merkle root of a
	// bundle body so it can be committed in the header before signing;
	// Multi-Zone installs its distributor's erasure-coding root here.
	StripeRoot func(txs []*types.Transaction) crypto.Hash
	// OnBundleStored, when non-nil, fires for every bundle that links
	// into the mempool (own and peer bundles alike); Multi-Zone ships
	// stripes to full nodes from here.
	OnBundleStored func(b *Bundle)
	// Fault selects a Byzantine behaviour.
	Fault FaultMode
	// Stream enables streaming commit mode (StreamChain-style): every
	// submitted transaction seals into a bundle immediately instead of
	// waiting for the BundleInterval tick, and proposals cut chains
	// eagerly at this node's own tips instead of waiting for n_c−f
	// receipt confirmations through the tip matrix — replicas that have
	// not yet received a referenced bundle fall back to the ErrPending
	// fetch-and-retry path. Off (the default) reproduces block mode
	// byte-for-byte.
	Stream bool
	// StreamDrain, in stream mode, lets BuildProposal emit a cursor block
	// with no cut advance while previously proposed cuts are still
	// uncommitted. Chained engines (HotStuff) need such drain blocks to
	// push the commit 3-chain over the tail of traffic at network speed;
	// per-instance engines (PBFT) commit each slot independently and
	// leave this off.
	StreamDrain bool
	// OnProposal, in stream mode, fires for every cursor block this node
	// builds or successfully validates — before any quorum forms — so
	// Multi-Zone distributors can begin speculative distribution. May
	// fire more than once per block (build + validate, re-proposals);
	// consumers dedupe by block hash. Never fires in block mode.
	OnProposal func(blk *PredisBlock)
	// OnEvict, in stream mode, fires when the consensus engine abandons
	// a proposed cursor block without committing it (view change, fork
	// prune) so speculative distribution can be retracted. Never fires in
	// block mode.
	OnEvict func(blk *PredisBlock)
	// Trace, when non-nil, records the bundle_sealed lifecycle stage
	// (first queued transaction → bundle packed and signed). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives per-node counters (bundle_produced,
	// bundle_accepted, txs_committed) and the bundle_seal_ms histogram.
	// Metric pointers are resolved once at construction; nil disables.
	Metrics *obs.Registry
}

const (
	// maxFetchBundles bounds bundles per BundleResponse.
	maxFetchBundles = 64
	// catchupWindow is how many committed Predis blocks are retained to
	// serve crash-recovery CatchupRequests. A restarted node that fell
	// more than catchupWindow blocks behind its peers cannot catch up
	// from them.
	catchupWindow = 1024
	// maxCatchupBlocks bounds blocks per CatchupResponse.
	maxCatchupBlocks = 256
)

// CommitInfo describes one committed Predis block.
type CommitInfo struct {
	Height  uint64
	Block   *PredisBlock
	Bundles []*Bundle
	Txs     []*types.Transaction
}

// Predis is the per-node data production component (§III). It owns the
// mempool, packs and disseminates bundles, serves and issues bundle
// fetches, maintains the ban list, and implements consensus.Application so
// a BFT engine can order Predis blocks.
//
// It must be driven from a single serialized executor (env contract).
type Predis struct {
	opts Options
	ctx  env.Context
	mp   *Mempool

	queue []*types.Transaction
	// queueTimes parallels queue with each transaction's enqueue time, so
	// the bundle_sealed span can start at the first queued transaction.
	queueTimes     []time.Time
	produceTimer   env.Timer
	lastAdvertised TipList

	lastHeight    uint64
	lastBlockHash crypto.Hash

	// fetches tracks one outstanding fetch per producer chain.
	fetches map[wire.NodeID]*fetchState
	// retry is the shared backoff policy for fetches and catch-up rounds:
	// env.DefaultBackoff(2×BundleInterval).
	retry env.Backoff

	// catchup is the in-flight crash-recovery state (nil when live).
	catchup *catchupState
	// recent is the committed-block retention ring serving catch-up.
	recent []*PredisBlock

	engine consensus.Engine

	// stats
	bundlesProduced uint64
	bundlesAccepted uint64
	txsCommitted    uint64

	// obs metrics (nil-safe recorders; resolved once at construction)
	mBundleProduced *obs.Counter
	mBundleAccepted *obs.Counter
	mTxsCommitted   *obs.Counter
	mSealLatency    *obs.Histogram
}

type fetchState struct {
	to      uint64 // highest height requested
	attempt int
	timer   env.Timer
}

var _ consensus.Application = (*Predis)(nil)

// NewPredis builds the component; call Start before use and SetEngine once
// the consensus engine exists.
func NewPredis(opts Options) (*Predis, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Peers) != opts.Params.NC {
		return nil, fmt.Errorf("core: %d peers for NC=%d", len(opts.Peers), opts.Params.NC)
	}
	mp, err := NewMempool(opts.Params)
	if err != nil {
		return nil, err
	}
	if opts.OnBundleStored != nil {
		mp.SetOnLink(opts.OnBundleStored)
	}
	return &Predis{
		opts:            opts,
		mp:              mp,
		fetches:         make(map[wire.NodeID]*fetchState),
		retry:           env.DefaultBackoff(2 * opts.Params.BundleInterval),
		mBundleProduced: opts.Metrics.Counter("bundle_produced", opts.Self),
		mBundleAccepted: opts.Metrics.Counter("bundle_accepted", opts.Self),
		mTxsCommitted:   opts.Metrics.Counter("txs_committed", opts.Self),
		mSealLatency:    opts.Metrics.Histogram("bundle_seal_ms", opts.Self, obs.DefaultLatencyBucketsMS),
	}, nil
}

// Mempool exposes the underlying mempool (read-mostly; external mutation
// is limited to Ban/Unban).
func (p *Predis) Mempool() *Mempool { return p.mp }

// SetEngine wires the consensus engine for Poke notifications.
func (p *Predis) SetEngine(e consensus.Engine) { p.engine = e }

// Stats returns (bundles produced, bundles accepted from peers, txs
// committed).
func (p *Predis) Stats() (produced, accepted, committed uint64) {
	return p.bundlesProduced, p.bundlesAccepted, p.txsCommitted
}

// QueueLen returns the number of transactions awaiting bundling.
func (p *Predis) QueueLen() int { return len(p.queue) }

// LastHeight returns the last applied consensus height (via engine commit
// or catch-up replay).
func (p *Predis) LastHeight() uint64 { return p.lastHeight }

// Start arms the bundle production timer.
func (p *Predis) Start(ctx env.Context) {
	p.ctx = ctx
	p.armProduceTimer()
}

func (p *Predis) armProduceTimer() {
	if p.opts.Fault == FaultSilent {
		return
	}
	p.produceTimer = p.ctx.After(p.mp.params.BundleInterval, func() {
		p.produceBundle()
		p.armProduceTimer()
	})
}

// SubmitTx enqueues a client transaction for bundling; full bundles are
// emitted immediately (without waiting for the interval timer). In stream
// mode every submission seals immediately: the bundle-chain cursor
// advances at transaction granularity and the interval timer only paces
// heartbeats.
func (p *Predis) SubmitTx(tx *types.Transaction) {
	if p.opts.Fault == FaultSilent {
		return
	}
	p.queue = append(p.queue, tx)
	p.queueTimes = append(p.queueTimes, p.ctx.Now())
	if p.opts.Stream {
		for len(p.queue) > 0 {
			p.produceBundle()
		}
		return
	}
	for len(p.queue) >= p.mp.params.BundleSize {
		p.produceBundle()
	}
}

// HasPendingWork implements consensus.WorkReporter: there is work when
// transactions await bundling or unconfirmed non-empty bundles exist.
func (p *Predis) HasPendingWork() bool {
	return len(p.queue) > 0 || p.mp.HasUnconfirmedPayload()
}

// produceBundle packs the next bundle from the queue and disseminates it.
// With an empty queue it may emit an empty *heartbeat* bundle: tip lists
// ride on bundles, so confirming the tail of traffic requires one more
// round of tip exchange (§III-F: only bundles produced 2·ls earlier can be
// cut). Heartbeats are emitted only while unconfirmed payload exists and
// our advertised tips are stale, so an idle network quiesces.
func (p *Predis) produceBundle() {
	if p.opts.Fault == FaultSilent {
		return
	}
	if len(p.queue) == 0 {
		if !p.mp.HasUnconfirmedPayload() {
			return
		}
		tips := p.mp.Tips()
		if tipsEqual(tips, p.lastAdvertised) {
			return
		}
	}
	n := p.mp.params.BundleSize
	if n > len(p.queue) {
		n = len(p.queue)
	}
	txs := p.queue[:n:n]
	p.queue = p.queue[n:]
	var firstQueued time.Time
	if n > 0 {
		firstQueued = p.queueTimes[0]
		p.queueTimes = p.queueTimes[n:]
	}

	tips := p.mp.Tips()
	parent := p.mp.TipHeader(p.opts.Self)
	tips[p.opts.Self]++ // the producer holds the bundle it is creating
	stripeRoot := crypto.ZeroHash
	if p.opts.StripeRoot != nil {
		stripeRoot = p.opts.StripeRoot(txs)
	}
	b := PackBundleStriped(p.mp.params.Signer, p.opts.Self, parent, txs, tips, stripeRoot)
	// Self-insertion skips signature/body verification.
	if _, _, _, err := p.mp.AddBundle(b, false); err != nil {
		p.ctx.Logf("predis: self bundle rejected: %v", err)
		return
	}
	p.bundlesProduced++
	p.mBundleProduced.Inc()
	if n > 0 {
		// bundle_sealed: first queued transaction → bundle packed and
		// signed. Heartbeat bundles carry no payload and record nothing.
		now := p.ctx.Now()
		p.opts.Trace.Span(obs.StageBundleSealed,
			obs.BundleKey(p.opts.Self, b.Header.Height), p.opts.Self, firstQueued, now)
		p.mSealLatency.ObserveDuration(now.Sub(firstQueued))
	}
	p.lastAdvertised = b.Header.Tips.Clone()
	p.disseminate(b)
	p.poke()
}

func tipsEqual(a, b TipList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *Predis) disseminate(b *Bundle) {
	msg := &BundleMsg{Bundle: b}
	if p.opts.Fault == FaultPartial {
		// Send to a random subset of n_c−f−1 peers (Fig. 6 case 2).
		k := p.mp.params.NC - p.mp.params.F - 1
		perm := p.ctx.Rand().Perm(len(p.opts.Peers))
		sent := 0
		for _, idx := range perm {
			peer := p.opts.Peers[idx]
			if peer == p.opts.Self || sent >= k {
				continue
			}
			p.ctx.Send(peer, msg)
			sent++
		}
		return
	}
	env.Multicast(p.ctx, p.opts.Peers, msg)
}

// Receive handles Predis data-plane messages. The node layer routes
// messages of core types here.
func (p *Predis) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *BundleMsg:
		p.onBundle(from, msg.Bundle)
	case *BundleRequest:
		p.onBundleRequest(from, msg)
	case *BundleResponse:
		for _, b := range msg.Bundles {
			p.onBundle(from, b)
		}
	case *ConflictEvidence:
		p.onEvidence(from, msg)
	case *CatchupRequest:
		p.onCatchupRequest(from, msg)
	case *CatchupResponse:
		p.onCatchupResponse(from, msg)
	default:
		p.ctx.Logf("predis: unexpected message %s from %d", wire.TypeName(m.Type()), from)
	}
}

func (p *Predis) onBundle(from wire.NodeID, b *Bundle) {
	res, ev, miss, err := p.mp.AddBundle(b, true)
	switch {
	case err != nil:
		if !errors.Is(err, ErrBannedProducer) {
			p.ctx.Logf("predis: bundle from %d rejected: %v", from, err)
		}
		return
	case res == Conflicting:
		// Spread the evidence so every honest node bans the producer.
		env.Multicast(p.ctx, p.opts.Peers, ev)
		return
	case res == Buffered:
		p.requestMissing(miss)
		return
	case res == Added:
		p.bundlesAccepted++
		p.mBundleAccepted.Inc()
		p.clearSatisfiedFetch(b.Header.Producer)
		if p.catchup != nil {
			// A catch-up block may have been waiting on this body.
			p.advanceCatchup()
		}
		p.poke()
	}
}

func (p *Predis) onBundleRequest(from wire.NodeID, req *BundleRequest) {
	if int(req.Producer) >= p.mp.params.NC || req.From == 0 || req.To < req.From {
		return
	}
	to := req.To
	if to-req.From+1 > maxFetchBundles {
		to = req.From + maxFetchBundles - 1
	}
	bundles := p.mp.Range(req.Producer, req.From-1, to)
	if len(bundles) == 0 {
		return
	}
	p.ctx.Send(from, &BundleResponse{Bundles: bundles})
}

func (p *Predis) onEvidence(from wire.NodeID, ev *ConflictEvidence) {
	producer := ev.A.Producer
	if p.mp.Banned(producer) {
		return // already known; do not re-flood
	}
	if !ev.Verify(p.mp.params.Signer) {
		p.ctx.Logf("predis: bogus conflict evidence from %d", from)
		return
	}
	p.mp.Ban(producer, ev)
	env.Multicast(p.ctx, p.opts.Peers, ev)
}

// requestMissing issues (or extends) the fetch for a chain's gap. The
// first attempt asks the producer itself; retries rotate over other peers
// (§III-D: missing bundles are obtainable from n_c−2f honest nodes).
func (p *Predis) requestMissing(miss *MissingRange) {
	if miss == nil {
		return
	}
	st := p.fetches[miss.Producer]
	if st != nil && st.to >= miss.To {
		return // an outstanding fetch already covers the gap
	}
	if st == nil {
		st = &fetchState{}
		p.fetches[miss.Producer] = st
	} else if st.timer != nil {
		st.timer.Stop()
	}
	st.to = miss.To
	p.sendFetch(miss.Producer, st)
}

func (p *Predis) sendFetch(producer wire.NodeID, st *fetchState) {
	from := p.mp.chains[producer].tip() + 1
	if from > st.to {
		p.clearFetch(producer)
		return
	}
	req := &BundleRequest{Producer: producer, From: from, To: st.to}
	// First attempt asks the producer plus one proven holder in parallel:
	// the cutting rule guarantees n_c−2f honest holders (§III-D), so a
	// second target hides a slow or uncooperative producer. Retries rotate
	// over the holders — peers whose advertised tip lists prove they hold
	// the gap — with capped exponential backoff, so a single unresponsive
	// peer can never stall the fetch.
	candidates := p.fetchHolders(producer, from)
	if st.attempt == 0 {
		p.ctx.Send(producer, req)
		if len(candidates) > 0 {
			p.ctx.Send(candidates[p.ctx.Rand().Intn(len(candidates))], req)
		}
	} else if len(candidates) > 0 {
		p.ctx.Send(candidates[(st.attempt-1)%len(candidates)], req)
	} else {
		p.ctx.Send(producer, req)
	}
	st.attempt++
	retry := p.retry.Delay(st.attempt-1, p.ctx.Rand())
	st.timer = p.ctx.After(retry, func() { p.sendFetch(producer, st) })
}

// fetchHolders returns the peers whose advertised tips prove they hold
// the producer's chain at height need (candidates for a bundle fetch),
// falling back to every peer when the tip matrix has no proof yet —
// tips propagate on bundles and can lag the bundles themselves.
func (p *Predis) fetchHolders(producer wire.NodeID, need uint64) []wire.NodeID {
	matrix := p.mp.TipMatrix(p.opts.Self)
	holders := make([]wire.NodeID, 0, len(p.opts.Peers))
	for _, peer := range p.opts.Peers {
		if peer == p.opts.Self || peer == producer {
			continue
		}
		if int(peer) < len(matrix) && matrix[peer][producer] >= need {
			holders = append(holders, peer)
		}
	}
	if len(holders) > 0 {
		return holders
	}
	for _, peer := range p.opts.Peers {
		if peer != p.opts.Self && peer != producer {
			holders = append(holders, peer)
		}
	}
	return holders
}

func (p *Predis) clearSatisfiedFetch(producer wire.NodeID) {
	st := p.fetches[producer]
	if st == nil {
		return
	}
	if p.mp.chains[producer].tip() >= st.to {
		p.clearFetch(producer)
	}
}

func (p *Predis) clearFetch(producer wire.NodeID) {
	if st := p.fetches[producer]; st != nil {
		if st.timer != nil {
			st.timer.Stop()
		}
		delete(p.fetches, producer)
	}
}

func (p *Predis) poke() {
	if p.engine != nil {
		p.engine.Poke()
	}
}

// --- consensus.Application ---

// parentState resolves the baseline cut vector and parent hash from a
// parent payload (nil = genesis).
func (p *Predis) parentState(parent wire.Message) ([]uint64, crypto.Hash, error) {
	if parent == nil {
		return ZeroCuts(p.mp.params.NC), crypto.ZeroHash, nil
	}
	pb, ok := parent.(*PredisBlock)
	if !ok {
		return nil, crypto.ZeroHash, fmt.Errorf("%w: parent payload is %T", ErrBlockShape, parent)
	}
	return pb.CutHeights(), pb.Hash(), nil
}

// BuildProposal implements consensus.Application: cut the chains relative
// to the parent block and pack a Predis block. Block mode cuts by the
// §III-B receipt rule; stream mode cuts eagerly at this node's own tips
// (and, with StreamDrain, emits empty drain blocks while proposed cuts
// await commit), announcing the proposal for speculative distribution.
func (p *Predis) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	if p.opts.Fault != FaultNone {
		return nil, crypto.ZeroHash, false
	}
	prev, parentHash, err := p.parentState(parent)
	if err != nil {
		p.ctx.Logf("predis: build: %v", err)
		return nil, crypto.ZeroHash, false
	}
	var blk *PredisBlock
	var ok bool
	if p.opts.Stream {
		drain := p.opts.StreamDrain && p.cutsAhead(prev)
		blk, ok = p.mp.BuildPredisBlockStream(height, parentHash, prev, p.opts.Self, drain)
	} else {
		blk, ok = p.mp.BuildPredisBlock(height, parentHash, prev, p.opts.Self)
	}
	if !ok {
		return nil, crypto.ZeroHash, false
	}
	if p.opts.Stream && p.opts.OnProposal != nil {
		p.opts.OnProposal(blk)
	}
	return blk, blk.Hash(), true
}

// cutsAhead reports whether the parent chain's cuts confirm bundles the
// committed state has not: the drain gate. While true, the tail of
// ordered-but-uncommitted traffic still needs follow-up blocks to push a
// chained engine's commit rule over it; once committed cuts catch up the
// network quiesces (drain blocks themselves never advance cuts, so they
// cannot re-arm the gate).
func (p *Predis) cutsAhead(prev []uint64) bool {
	committed := p.mp.Confirmed()
	for i := range prev {
		if prev[i] > committed[i] {
			return true
		}
	}
	return false
}

// ValidateProposal implements consensus.Application.
func (p *Predis) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	if p.opts.Fault != FaultNone {
		// Faulty replicas refuse to vote (Fig. 6).
		return crypto.ZeroHash, errors.New("core: faulty replica refuses to vote")
	}
	blk, ok := payload.(*PredisBlock)
	if !ok {
		return crypto.ZeroHash, fmt.Errorf("%w: payload is %T", ErrBlockShape, payload)
	}
	if blk.Height != height {
		return crypto.ZeroHash, fmt.Errorf("%w: block height %d, consensus height %d",
			ErrBlockShape, blk.Height, height)
	}
	prev, parentHash, err := p.parentState(parent)
	if err != nil {
		return crypto.ZeroHash, err
	}
	missing, err := p.mp.ValidatePredisBlock(blk, parentHash, prev)
	if errors.Is(err, ErrBlockMissing) {
		for i := range missing {
			p.requestMissing(&missing[i])
		}
		return crypto.ZeroHash, consensus.ErrPending
	}
	if err != nil {
		return crypto.ZeroHash, err
	}
	if p.opts.Stream && p.opts.OnProposal != nil {
		p.opts.OnProposal(blk)
	}
	return blk.Hash(), nil
}

// OnProposalEvicted implements consensus.ProposalEvicter: the engine
// abandoned an ordered-but-uncommitted cursor block (view change, fork
// prune), so retract its speculative distribution. Retraction is keyed by
// payload identity, not slot: a payload that committed at its height —
// possibly through another path (catch-up, competing fork) — must never
// be retracted, so the block hash is compared against what actually
// committed there. When the committed block at an old height is no longer
// retained the eviction is conservatively dropped; full-node spec-buffer
// TTL sweeps reclaim any leak.
func (p *Predis) OnProposalEvicted(height uint64, payload wire.Message) {
	if !p.opts.Stream || p.opts.OnEvict == nil {
		return
	}
	blk, ok := payload.(*PredisBlock)
	if !ok {
		return
	}
	switch {
	case height == p.lastHeight:
		if blk.Hash() == p.lastBlockHash {
			return // this exact payload committed
		}
	case height < p.lastHeight:
		committed := p.recentBlock(height)
		if committed == nil || committed.Hash() == blk.Hash() {
			return // committed, or unverifiable — do not retract
		}
	}
	p.opts.OnEvict(blk)
}

// OnCommit implements consensus.Application.
func (p *Predis) OnCommit(height uint64, payload wire.Message) {
	blk, ok := payload.(*PredisBlock)
	if !ok {
		p.ctx.Logf("predis: commit with payload %T", payload)
		return
	}
	if height <= p.lastHeight {
		// Already applied (catch-up can race a commit quorum that finished
		// while we were replaying); commits are idempotent by height.
		return
	}
	if height != p.lastHeight+1 {
		p.ctx.Logf("predis: commit height %d, expected %d", height, p.lastHeight+1)
	}
	p.commitBlock(height, blk)
	p.poke()
}

// commitBlock applies one committed block: the shared tail of the engine
// commit path and the catch-up replay path.
func (p *Predis) commitBlock(height uint64, blk *PredisBlock) {
	bundles := p.mp.BlockBundles(blk, p.mp.Confirmed())
	txs := BlockTxs(bundles)
	p.mp.ApplyCommit(blk)
	p.lastHeight = height
	p.lastBlockHash = blk.Hash()
	p.txsCommitted += uint64(len(txs))
	p.mTxsCommitted.Add(uint64(len(txs)))
	p.pushRecent(blk)
	if p.opts.OnCommit != nil {
		p.opts.OnCommit(CommitInfo{Height: height, Block: blk, Bundles: bundles, Txs: txs})
	}
}
