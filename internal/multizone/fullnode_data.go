package multizone

import (
	"bytes"
	"errors"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/obs"
	"predis/internal/wire"
)

// onStripe handles the stripe data plane (§IV-D): verify, store, forward
// down the subscription tree, and reassemble the bundle once n_c−f stripes
// arrived.
func (f *FullNode) onStripe(from wire.NodeID, m *StripeMsg) {
	// Starvation liveness, before any dedup: a subscribed sender whose
	// stripes systematically arrive after the n_c−f fastest is still
	// contributing — only silence marks a withholder (forgeries are charged
	// by the offense counter below, never by the starvation detector).
	if sd, ok := f.stripeSender[m.Index]; ok && sd == from {
		f.stripeSeen[m.Index] = f.ctx.Now()
	}
	headerHash := m.Header.Hash()
	p := f.partials[headerHash]
	if p != nil && (p.done || p.stripes[m.Index] != nil) {
		return // duplicate stripe
	}
	// Already assembled via another path (bundle pull)?
	if f.mp.Bundle(m.Header.Producer, m.Header.Height) != nil {
		f.forwardStripe(from, m)
		return
	}
	if err := f.cfg.Striper.VerifyStripe(m); err != nil {
		f.ctx.Logf("multizone: bad stripe from %d: %v", from, err)
		f.rejected++
		f.recordOffense(from)
		// Re-request the damaged bundle from an alternate holder — but
		// only when the header itself is authentic (a partial we already
		// signature-checked, or one that verifies now); a forged header's
		// coordinates are not worth chasing.
		if p != nil || f.headerAuthentic(&m.Header) {
			f.scheduleRefetch(m.Header, from)
		}
		return
	}
	if p == nil {
		// Verify the header signature once per bundle.
		if !f.headerAuthentic(&m.Header) {
			f.ctx.Logf("multizone: stripe with bad header signature from %d", from)
			f.rejected++
			f.recordOffense(from)
			return
		}
		p = newPartialBundle(m.Header, f.cfg.NC)
		f.addPartial(headerHash, p)
	}
	p.stripes[m.Index] = m
	p.have++
	f.stripesIn++
	f.forwardStripe(from, m)

	if p.have >= f.cfg.Striper.MinStripes() {
		b, err := f.cfg.Striper.Reassemble(p.header, p.stripes)
		if err != nil {
			// Possible with exactly n_c−f stripes if one was forged with a
			// colliding proof; wait for more stripes.
			if p.have >= f.cfg.NC {
				f.ctx.Logf("multizone: bundle %s unreconstructable: %v", headerHash.Short(), err)
				f.dropPartial(headerHash, p)
			}
			return
		}
		p.done = true
		f.noteStarvation(p)
		clear(p.stripes) // free shard memory; header stays to dedupe
		p.stripes = nil
		f.storeBundle(b, false)
		f.tryCompleteBlocks()
	}
}

// forwardStripe relays a stripe to this node's subscribers for its index
// (in ID order, so map iteration never affects the wire).
//
//predis:hotpath
func (f *FullNode) forwardStripe(from wire.NodeID, m *StripeMsg) {
	if len(f.subscribers[m.Index]) == 0 {
		return
	}
	for _, id := range f.stripeSubscribers(m.Index) {
		if id != from {
			f.ctx.Send(id, m)
		}
	}
}

// addPartial stores a new partial bundle and raises its producer's
// partialTop.
func (f *FullNode) addPartial(h crypto.Hash, p *partialBundle) {
	f.partials[h] = p
	if p.header.Height > f.partialTop[p.header.Producer] {
		f.partialTop[p.header.Producer] = p.header.Height
	}
}

// dropPartial deletes a partial bundle; removing its producer's highest
// one rescans that producer's partials for the next highest.
func (f *FullNode) dropPartial(h crypto.Hash, p *partialBundle) {
	delete(f.partials, h)
	producer := p.header.Producer
	if p.header.Height != f.partialTop[producer] {
		return
	}
	var top uint64
	for _, q := range f.partials {
		if q.header.Producer == producer && q.header.Height > top {
			top = q.header.Height
		}
	}
	if top == 0 {
		delete(f.partialTop, producer)
	} else {
		f.partialTop[producer] = top
	}
}

// storeBundle inserts an assembled or pulled bundle into the local chains.
// Out-of-order arrivals are buffered by the mempool and linked when the
// gap fills; verify selects full verification for pulled bundles (stripe
// reassembly already verified body and signature).
func (f *FullNode) storeBundle(b *core.Bundle, verify bool) {
	res, _, miss, err := f.mp.AddBundle(b, verify)
	switch {
	case err != nil:
		if !errors.Is(err, core.ErrBannedProducer) {
			f.ctx.Logf("multizone: bundle rejected: %v", err)
		}
		return
	case res == core.Buffered && miss != nil:
		// Pull the gap over the backup path, with capped-backoff retries
		// rotating across candidate holders (backup peers first — they are
		// in another zone, so correlated loss is unlikely — then the stripe
		// sender, then the producing consensus node).
		f.schedulePull(miss.Producer, miss.From, miss.To)
	case res == core.Added:
		f.bundles++
		// stripe_distributed: distributor anchor → bundle assembled at this
		// full node (first completion wins per node).
		f.cfg.Trace.SpanSinceMark(obs.StageStripeDistributed,
			obs.BundleKey(b.Header.Producer, b.Header.Height), f.cfg.Self, f.ctx.Now())
	}
}

// pullTargets lists candidate holders for a producer's bundles in
// preference order; schedulePull rotates through them across retries.
func (f *FullNode) pullTargets(producer wire.NodeID) []wire.NodeID {
	out := make([]wire.NodeID, 0, len(f.cfg.BackupPeers)+2)
	seen := make(map[wire.NodeID]bool, len(f.cfg.BackupPeers)+2)
	add := func(id wire.NodeID) {
		if id != f.cfg.Self && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	if len(f.cfg.BackupPeers) > 0 {
		add(f.cfg.BackupPeers[int(producer)%len(f.cfg.BackupPeers)])
	}
	if sd, ok := f.stripeSender[uint8(producer)%uint8(f.cfg.NC)]; ok {
		add(sd)
	}
	for _, p := range f.cfg.BackupPeers {
		add(p)
	}
	add(producer % wire.NodeID(f.cfg.NC))
	return out
}

// onBlock handles a Predis block arriving over the relayer tree: verify,
// forward, and complete once every referenced bundle is locally held.
func (f *FullNode) onBlock(from wire.NodeID, blk *core.PredisBlock) {
	h := blk.Hash()
	if _, seen := f.seenBlocks[h]; seen {
		return
	}
	if int(blk.Leader) >= f.cfg.NC ||
		!f.cfg.Signer.Verify(int(blk.Leader), h, blk.Sig) {
		f.ctx.Logf("multizone: block with bad signature from %d", from)
		return
	}
	f.seenBlocks[h] = blk.Height
	// A live block leaping past our head means we missed blocks (restart,
	// late join, or lost stripes): back-fill the gap immediately instead
	// of waiting for the periodic digest, which a zone without backup
	// peers never even sends.
	if blk.Height > f.lastHeight+1 {
		f.StartCatchup()
		if cu := f.catchup; cu != nil && blk.Height-1 > cu.target {
			cu.target = blk.Height - 1
		}
	}
	// Forward to every subscriber (each at most once, in ID order).
	msg := &ZoneBlock{Block: blk}
	for _, id := range f.sortedSubscribers() {
		if id != from {
			f.ctx.Send(id, msg)
		}
	}
	f.pendBlocks = append(f.pendBlocks, blk)
	f.tryCompleteBlocksFrom(from)
}

// specEntry is one speculatively delivered proposed block.
type specEntry struct {
	blk *core.PredisBlock
	at  time.Time
}

// onSpecBlock buffers a *proposed* block pushed ahead of the consensus
// decision (streaming commit): verify the leader signature, open the
// speculation window, forward down the subscription tree, and pre-fetch
// any referenced bundles with no stripes in flight. The buffer never
// completes a block — only the ordered ZoneBlock does — so a Byzantine
// leader pushing garbage proposals costs bandwidth, not safety.
func (f *FullNode) onSpecBlock(from wire.NodeID, blk *core.PredisBlock) {
	h := blk.Hash()
	if _, seen := f.seenBlocks[h]; seen {
		return // the ordered copy already arrived; nothing left to speculate on
	}
	if blk.Height <= f.lastHeight {
		return // stale proposal below our completed head
	}
	if _, ok := f.specBlocks[h]; ok {
		return // duplicate push
	}
	if int(blk.Leader) >= f.cfg.NC ||
		!f.cfg.Signer.Verify(int(blk.Leader), h, blk.Sig) {
		f.ctx.Logf("multizone: speculative block with bad signature from %d", from)
		return
	}
	f.specBlocks[h] = &specEntry{blk: blk, at: f.ctx.Now()}
	// Open the speculation window on this node's timeline; it closes when
	// the ordered block finalizes the buffer (End) or the proposal is
	// retracted (Discard). First proposal wins per (height, node).
	f.cfg.Trace.Begin(obs.StageSpecDistributed, obs.BlockKey(blk.Height),
		f.cfg.Self, f.ctx.Now())
	msg := &ZoneSpec{Block: blk}
	for _, id := range f.sortedSubscribers() {
		if id != from {
			f.ctx.Send(id, msg)
		}
	}
	f.prefetchSpec(from, blk)
}

// prefetchSpec pulls bundles a speculative block references that are
// neither assembled nor being assembled locally: when the stripes for a
// cut were lost, the pull overlaps the remaining consensus rounds
// instead of starting after commit. In the common case every referenced
// bundle already has a partial (stripes ship at bundle-store time, ahead
// of the proposal), so the pre-fetch stays silent and costs nothing.
func (f *FullNode) prefetchSpec(from wire.NodeID, blk *core.PredisBlock) {
	tips := f.mp.Tips()
	for i, c := range blk.Cuts {
		if i >= len(tips) {
			break
		}
		have := tips[i]
		if fl := f.partialTop[wire.NodeID(i)]; fl > have { // highest height with stripes in flight
			have = fl
		}
		if c.Height > have {
			f.ctx.Send(from, &core.BundleRequest{
				Producer: wire.NodeID(i), From: have + 1, To: c.Height,
			})
		}
	}
}

// onSpecDiscard retracts a buffered speculative block: the consensus
// engine evicted the proposal (view change, fork loss). The discard is
// unauthenticated — forging one costs the victim only the speculation
// latency win, never safety or liveness, since finalization always rides
// the ordered ZoneBlock (and a re-proposal is pushed afresh).
func (f *FullNode) onSpecDiscard(from wire.NodeID, m *ZoneSpecDiscard) {
	ent, ok := f.specBlocks[m.Hash]
	if !ok || ent.blk.Height != m.Height {
		return
	}
	delete(f.specBlocks, m.Hash)
	f.specWaste++
	f.cfg.Trace.Discard(obs.StageSpecDistributed, obs.BlockKey(m.Height),
		f.cfg.Self, f.ctx.Now())
	// Forward the retraction along the same tree the spec travelled; the
	// buffered-entry guard above makes re-forwarding loop-free.
	for _, id := range f.sortedSubscribers() {
		if id != from {
			f.ctx.Send(id, m)
		}
	}
}

// settleSpec resolves the speculative buffer against a completed block:
// the matching entry is a hit (its speculation window closes), and every
// other entry at or below the committed height lost its race — the chain
// moved past it, so it is waste.
func (f *FullNode) settleSpec(blk *core.PredisBlock) {
	if len(f.specBlocks) == 0 {
		return
	}
	now := f.ctx.Now()
	if h := blk.Hash(); f.specBlocks[h] != nil {
		delete(f.specBlocks, h)
		f.specHits++
		f.cfg.Trace.End(obs.StageSpecDistributed, obs.BlockKey(blk.Height),
			f.cfg.Self, now)
	}
	f.discardSpec(now, func(ent *specEntry) bool {
		return ent.blk.Height <= blk.Height
	})
}

// discardSpec drops every spec-buffer entry matching lose as waste. Losers
// are collected first and discarded in (height, hash) order so the trace
// spans record identically regardless of map iteration order.
func (f *FullNode) discardSpec(now time.Time, lose func(*specEntry) bool) {
	var losers []crypto.Hash
	for h, ent := range f.specBlocks {
		if lose(ent) {
			losers = append(losers, h)
		}
	}
	sort.Slice(losers, func(i, j int) bool {
		a, b := f.specBlocks[losers[i]], f.specBlocks[losers[j]]
		if a.blk.Height != b.blk.Height {
			return a.blk.Height < b.blk.Height
		}
		return bytes.Compare(losers[i][:], losers[j][:]) < 0
	})
	for _, h := range losers {
		ent := f.specBlocks[h]
		delete(f.specBlocks, h)
		f.specWaste++
		f.cfg.Trace.Discard(obs.StageSpecDistributed, obs.BlockKey(ent.blk.Height),
			f.cfg.Self, now)
	}
}

// tryCompleteBlocks retries pending blocks after new bundles arrived.
func (f *FullNode) tryCompleteBlocks() { f.tryCompleteBlocksFrom(wire.NoNode) }

// tryCompleteBlocksFrom additionally knows who sent the newest block, so
// missing bundles can be pulled from the block sender (§IV-D).
func (f *FullNode) tryCompleteBlocksFrom(sender wire.NodeID) {
	progress := true
	for progress {
		progress = false
		for i, blk := range f.pendBlocks {
			if blk == nil {
				continue
			}
			if blk.Parent != f.lastBlock {
				continue // must complete the parent first
			}
			missing, err := f.mp.ValidatePredisBlock(blk, f.lastBlock, f.lastCuts)
			switch {
			case err == nil:
				bundles := f.mp.BlockBundles(blk, f.lastCuts)
				txs := core.BlockTxs(bundles)
				f.mp.ApplyCommit(blk)
				f.lastCuts = blk.CutHeights()
				f.lastBlock = blk.Hash()
				f.lastHeight = blk.Height
				f.blocks++
				f.pendBlocks[i] = nil
				f.pushRecentBlock(blk)
				f.settleSpec(blk)
				progress = true
				// Execute before persisting so the ledger entry commits
				// to the post-block account state, not just the ordering.
				var stateRoot crypto.Hash
				if f.cfg.Executor != nil {
					var r exec.Result
					if f.cfg.ExecSerial {
						r = f.cfg.Executor.ExecuteBlockSerial(blk.Height, txs)
					} else {
						r = f.cfg.Executor.ExecuteBlock(blk.Height, txs)
					}
					stateRoot = r.StateRoot
					now := f.ctx.Now()
					f.cfg.Trace.Span(obs.StageExecuted,
						obs.BlockKey(blk.Height), f.cfg.Self, now, now)
					if f.cfg.OnExecute != nil {
						f.cfg.OnExecute(r)
					}
				}
				if f.cfg.Ledger != nil {
					if lerr := f.cfg.Ledger.Append(ledger.Entry{
						Height:    blk.Height,
						Hash:      blk.Hash(),
						Parent:    blk.Parent,
						TxRoot:    blk.TxRoot,
						StateRoot: stateRoot,
						TxCount:   uint32(len(txs)),
					}); lerr != nil {
						f.ctx.Logf("multizone: ledger append: %v", lerr)
					}
				}
				// fullnode_delivered: distributor anchor → block fully
				// reconstructed (Predis block + every referenced bundle).
				f.cfg.Trace.SpanSinceMark(obs.StageFullNodeDelivered,
					obs.BlockKey(blk.Height), f.cfg.Self, f.ctx.Now())
				if f.cfg.OnBlockComplete != nil {
					f.cfg.OnBlockComplete(blk, len(txs))
				}
			case errors.Is(err, core.ErrBlockMissing):
				target := sender
				if target == wire.NoNode {
					continue
				}
				for _, ms := range missing {
					f.ctx.Send(target, &core.BundleRequest{
						Producer: ms.Producer, From: ms.From, To: ms.To,
					})
				}
			default:
				f.ctx.Logf("multizone: block %d invalid: %v", blk.Height, err)
				f.pendBlocks[i] = nil
			}
		}
	}
	// Compact completed slots.
	kept := f.pendBlocks[:0]
	for _, blk := range f.pendBlocks {
		if blk != nil {
			kept = append(kept, blk)
		}
	}
	f.pendBlocks = kept
	f.checkCatchupDone()
}

// onBundleRequest serves bundle pulls from peers (backup connections and
// block-completion fetches).
func (f *FullNode) onBundleRequest(from wire.NodeID, req *core.BundleRequest) {
	if int(req.Producer) >= f.cfg.NC || req.From == 0 || req.To < req.From {
		return
	}
	const maxServe = 64
	to := req.To
	if to-req.From+1 > maxServe {
		to = req.From + maxServe - 1
	}
	bundles := f.mp.Range(req.Producer, req.From-1, to)
	if len(bundles) > 0 {
		f.ctx.Send(from, &core.BundleResponse{Bundles: bundles})
	}
}

// armDigest exchanges ledger digests over backup connections (§IV-F).
func (f *FullNode) armDigest() {
	f.digestTimer = f.ctx.After(f.cfg.DigestInterval, func() {
		d := &BlockDigest{Height: f.lastHeight, Tips: f.mp.Tips()}
		for _, p := range f.cfg.BackupPeers {
			f.ctx.Send(p, d)
		}
		f.armDigest()
	})
}

// onDigest pulls bundles we miss from a digest sender; when the digest
// also reveals we are behind on blocks (e.g. the relayer tree dropped a
// ZoneBlock, or we just restarted), request the missing block run too.
func (f *FullNode) onDigest(from wire.NodeID, m *BlockDigest) {
	tips := f.mp.Tips()
	for i, remote := range m.Tips {
		if i >= len(tips) {
			break
		}
		if remote > tips[i] {
			f.ctx.Send(from, &core.BundleRequest{
				Producer: wire.NodeID(i), From: tips[i] + 1, To: remote,
			})
		}
	}
	if m.Height > f.lastHeight {
		f.ctx.Send(from, &BlockRequest{Height: f.lastHeight})
	}
}

// sweepDataPlane bounds memory on long runs: finished partial-bundle
// entries whose bundles are confirmed (or pruned) leave the dedup map, and
// ancient block-hash entries age out once the chain moves past them.
func (f *FullNode) sweepDataPlane() {
	for h, p := range f.partials {
		if !p.done {
			continue
		}
		conf := f.mp.ConfirmedHeight(p.header.Producer)
		if p.header.Height <= conf {
			f.dropPartial(h, p)
		}
	}
	const keepBlocks = 128
	if f.lastHeight > keepBlocks {
		floor := f.lastHeight - keepBlocks
		for h, height := range f.seenBlocks {
			if height < floor {
				delete(f.seenBlocks, h)
			}
		}
	}
	// Speculative blocks that neither finalized nor were retracted (their
	// discard was lost, or the height completed via catch-up) age out as
	// waste, so a lossy stream can never grow the buffer without bound.
	if len(f.specBlocks) > 0 {
		now := f.ctx.Now()
		ttl := 8 * f.cfg.AliveInterval
		f.discardSpec(now, func(ent *specEntry) bool {
			return ent.blk.Height <= f.lastHeight || now.Sub(ent.at) > ttl
		})
	}
}
