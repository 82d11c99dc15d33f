package multizone

import (
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/env"
	"predis/internal/wire"
)

// This file implements full-node crash recovery (ISSUE 1 tentpole 2, zone
// side). A crashed full node loses every timer chain (alive, heartbeat,
// digest, pull retries) and every block and stripe sent while it was down;
// its upstream senders expire it from their subscriber sets and its own
// relayer view goes stale. On restart the node therefore (1) re-arms its
// periodic timers, (2) discards its subscription/relayer control state and
// re-runs the §IV-C bootstrap (GetRelayers + Algorithm 1), and (3) pulls
// the committed blocks it missed from zone/backup peers, replaying them
// through the normal block-completion path — which in turn issues ordinary
// bundle pulls for any bodies it lacks.
//
// Catch-up blocks carry the consensus leader's signature and must chain
// contiguously from our last completed block and validate against our
// bundle cut state — the same trust the live ZoneBlock path (§IV-D)
// places in a block sender.

var _ env.Restartable = (*FullNode)(nil)

// zoneCatchup is the in-flight block catch-up of one full node.
type zoneCatchup struct {
	attempt int
	timer   env.Timer
	// target is the highest head any peer has claimed; catch-up finishes
	// once our own head reaches it (or a peer confirms we are current).
	target uint64
}

// pullState is one producer's outstanding bundle-gap pull.
type pullState struct {
	attempt  int
	from, to uint64
	timer    env.Timer
}

// CatchingUp reports whether a restart block catch-up is in flight.
func (f *FullNode) CatchingUp() bool { return f.catchup != nil }

// OnRestart implements env.Restartable.
func (f *FullNode) OnRestart() {
	if f.ctx == nil {
		return
	}
	// (1) Re-arm the periodic timer chains killed by the crash.
	for _, t := range []env.Timer{f.aliveTimer, f.heartbeatTimer, f.digestTimer} {
		if t != nil {
			t.Stop()
		}
	}
	f.armAlive()
	f.armHeartbeat()
	if f.cfg.DigestInterval > 0 && len(f.cfg.BackupPeers) > 0 {
		f.armDigest()
	}
	// (2) Drop control-plane state that went stale while we were down:
	// upstream senders have expired us, our subscribers have resubscribed
	// elsewhere, and relayer liveness info is outdated. Demotion is
	// deliberate — Algorithm 1 re-promotes us if the zone is short of
	// relayers. aliveVersion is retained so announcements stay monotonic.
	f.stripeSender = make(map[uint8]wire.NodeID)
	f.pendingSub = make(map[uint8]wire.NodeID)
	f.subscribers = make(map[uint8]map[wire.NodeID]bool)
	f.subCount = 0
	f.subsChanged()
	f.consensusDir = make(map[uint8]bool)
	f.isRelayer = false
	f.zoneRelayers = make(map[wire.NodeID]*relayerInfo)
	f.lastSeen = make(map[wire.NodeID]time.Time)
	// Pull retry timers died with the crash.
	for producer := range f.pulls {
		delete(f.pulls, producer)
	}
	f.bootstrap()
	// (3) Catch up the blocks committed while we were down.
	f.StartCatchup()
}

// StartCatchup begins (or restarts) block catch-up; idempotent while one
// is running.
func (f *FullNode) StartCatchup() {
	if f.catchup != nil {
		return
	}
	f.catchup = &zoneCatchup{target: f.lastHeight}
	f.sendCatchupRound()
}

// catchupTargets picks up to f+1 peers for one request round, rotating
// with the attempt counter so an unresponsive peer cannot stall recovery.
// Backup peers come first: they are in other zones, so a zone-local
// outage does not take out every candidate at once.
func (f *FullNode) catchupTargets(attempt int) []wire.NodeID {
	cands := make([]wire.NodeID, 0, len(f.cfg.BackupPeers)+len(f.cfg.ZonePeers))
	seen := make(map[wire.NodeID]bool)
	for _, p := range f.cfg.BackupPeers {
		if p != f.cfg.Self && !seen[p] {
			seen[p] = true
			cands = append(cands, p)
		}
	}
	zp := append([]wire.NodeID(nil), f.cfg.ZonePeers...)
	sort.Slice(zp, func(i, j int) bool { return zp[i] < zp[j] })
	for _, p := range zp {
		if p != f.cfg.Self && !seen[p] {
			seen[p] = true
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	k := f.cfg.F + 1
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]wire.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, cands[(attempt*k+i)%len(cands)])
	}
	return out
}

func (f *FullNode) sendCatchupRound() {
	cu := f.catchup
	if cu == nil {
		return
	}
	req := &BlockRequest{Height: f.lastHeight}
	for _, peer := range f.catchupTargets(cu.attempt) {
		f.ctx.Send(peer, req)
	}
	cu.attempt++
	delay := f.retry.Delay(cu.attempt-1, f.ctx.Rand())
	cu.timer = f.ctx.After(delay, f.sendCatchupRound)
}

// onBlockRequest serves completed blocks from the retention ring. When
// the requester's next block (or the bundle bodies it references) has
// already been pruned here, the response carries a snapshot anchor: the
// lowest retained block whose bundle suffix this node can still serve in
// full, so the requester can fast-forward and replay from there.
func (f *FullNode) onBlockRequest(from wire.NodeID, req *BlockRequest) {
	const maxBlocks = 64
	resp := &BlockResponse{Head: f.lastHeight}
	start := req.Height
	if !f.servableFrom(start) {
		if anchor := f.findAnchor(start); anchor != nil {
			resp.Anchor = anchor
			start = anchor.Height
		} else {
			f.ctx.Send(from, resp) // head-only: we cannot help
			return
		}
	}
	for h := start + 1; h <= f.lastHeight; h++ {
		blk := f.recentBlock(h)
		if blk == nil {
			break
		}
		resp.Blocks = append(resp.Blocks, blk)
		if len(resp.Blocks) >= maxBlocks {
			break
		}
	}
	f.ctx.Send(from, resp)
}

// servableFrom reports whether this node can serve both the block run
// above height s and every bundle those blocks reference: the cut
// heights at s must still be above our pruning bases, and block s+1 must
// still be in the retention ring.
func (f *FullNode) servableFrom(s uint64) bool {
	var cuts []uint64
	if s == 0 {
		cuts = core.ZeroCuts(f.cfg.NC)
	} else if blk := f.recentBlock(s); blk != nil {
		cuts = blk.CutHeights()
	} else if s == f.lastHeight {
		return true // nothing above s to serve
	} else {
		return false // block s evicted: cannot prove continuity
	}
	if s < f.lastHeight && f.recentBlock(s+1) == nil {
		return false
	}
	for i, base := range f.mp.Bases() {
		if i < len(cuts) && cuts[i] < base {
			return false
		}
	}
	return true
}

// findAnchor returns the lowest retained block above s that this node
// can serve a complete bundle suffix for, or nil.
func (f *FullNode) findAnchor(s uint64) *core.PredisBlock {
	bases := f.mp.Bases()
	for h := s + 1; h <= f.lastHeight; h++ {
		blk := f.recentBlock(h)
		if blk == nil {
			continue
		}
		cuts := blk.CutHeights()
		ok := true
		for i, base := range bases {
			if i < len(cuts) && cuts[i] < base {
				ok = false
				break
			}
		}
		if ok {
			return blk
		}
	}
	return nil
}

// onBlockResponse feeds caught-up blocks into the normal completion path.
// Unlike onBlock it does not re-forward old blocks down the subscription
// tree: subscribers either saw them live or run their own catch-up.
func (f *FullNode) onBlockResponse(from wire.NodeID, resp *BlockResponse) {
	// Responses are useful with or without an active catch-up: the digest
	// path (§IV-F) also requests block runs when it spots a gap.
	if cu := f.catchup; cu != nil && resp.Head > cu.target {
		cu.target = resp.Head
	}
	if resp.Anchor != nil {
		f.adoptAnchor(from, resp.Anchor)
	}
	for _, blk := range resp.Blocks {
		if blk == nil || blk.Height <= f.lastHeight {
			continue
		}
		h := blk.Hash()
		if _, seen := f.seenBlocks[h]; seen {
			continue
		}
		if int(blk.Leader) >= f.cfg.NC ||
			!f.cfg.Signer.Verify(int(blk.Leader), h, blk.Sig) {
			f.ctx.Logf("multizone: catchup block with bad signature from %d", from)
			return
		}
		f.seenBlocks[h] = blk.Height
		f.pendBlocks = append(f.pendBlocks, blk)
	}
	// Validate/complete; missing bundles are pulled from the responder.
	f.tryCompleteBlocksFrom(from)
}

// adoptAnchor fast-forwards to a snapshot anchor: the bundles below its
// cuts have been pruned network-wide, so the node resumes from the
// anchor instead of replaying them (its local history keeps a gap, like
// any pruning node). The anchor carries the consensus leader's signature
// — the same trust the live ZoneBlock path places in a block sender —
// and every subsequent block must chain from it and validate, so a bogus
// anchor dead-ends instead of forking us silently.
func (f *FullNode) adoptAnchor(from wire.NodeID, anchor *core.PredisBlock) {
	if anchor.Height <= f.lastHeight {
		return
	}
	h := anchor.Hash()
	if int(anchor.Leader) >= f.cfg.NC ||
		!f.cfg.Signer.Verify(int(anchor.Leader), h, anchor.Sig) {
		f.ctx.Logf("multizone: anchor with bad signature from %d", from)
		return
	}
	f.ctx.Logf("multizone: node %d skip-syncs %d → %d (bundle retention exceeded)",
		f.cfg.Self, f.lastHeight, anchor.Height)
	f.mp.FastForward(anchor.CutHeights())
	f.lastCuts = anchor.CutHeights()
	f.lastBlock = h
	f.lastHeight = anchor.Height
	f.seenBlocks[h] = anchor.Height
	f.pushRecentBlock(anchor)
	// Blocks pending below the anchor can never complete anymore; pulls
	// for pruned ranges will reconcile against the fast-forwarded tips.
	kept := f.pendBlocks[:0]
	for _, blk := range f.pendBlocks {
		if blk != nil && blk.Height > anchor.Height {
			kept = append(kept, blk)
		}
	}
	f.pendBlocks = kept
	f.reconcilePulls()
}

// checkCatchupDone finishes catch-up once the chain head reached the
// highest head any peer claimed. Called whenever a block completes.
func (f *FullNode) checkCatchupDone() {
	cu := f.catchup
	if cu == nil || f.lastHeight < cu.target {
		return
	}
	if cu.timer != nil {
		cu.timer.Stop()
	}
	f.catchup = nil
	f.ctx.Logf("multizone: node %d caught up at height %d after %d rounds",
		f.cfg.Self, f.lastHeight, cu.attempt)
}

// --- bundle-gap pulls with backoff and holder rotation ---

// schedulePull starts (or extends) the retried pull of one producer's
// bundle gap. A single in-flight pull per producer suffices: the mempool
// reports the full gap each time, and retries re-read it.
func (f *FullNode) schedulePull(producer wire.NodeID, from, to uint64) {
	if st := f.pulls[producer]; st != nil {
		if to > st.to {
			st.to = to
		}
		if from < st.from {
			st.from = from
		}
		return // retry timer already running
	}
	st := &pullState{from: from, to: to}
	f.pulls[producer] = st
	f.firePull(producer, st)
}

func (f *FullNode) firePull(producer wire.NodeID, st *pullState) {
	targets := f.pullTargets(producer)
	if len(targets) == 0 {
		delete(f.pulls, producer)
		return
	}
	target := targets[st.attempt%len(targets)]
	f.ctx.Send(target, &core.BundleRequest{Producer: producer, From: st.from, To: st.to})
	st.attempt++
	delay := f.retry.Delay(st.attempt-1, f.ctx.Rand())
	st.timer = f.ctx.After(delay, func() {
		if f.pulls[producer] != st {
			return
		}
		// Re-read the gap: earlier heights may have arrived meanwhile.
		tips := f.mp.Tips()
		if int(producer) < len(tips) && tips[producer] >= st.to {
			delete(f.pulls, producer)
			return
		}
		if int(producer) < len(tips) && tips[producer]+1 > st.from {
			st.from = tips[producer] + 1
		}
		f.firePull(producer, st)
	})
}

// reconcilePulls clears pulls whose gaps have been filled (called after a
// BundleResponse lands, so a satisfied pull stops retrying immediately).
func (f *FullNode) reconcilePulls() {
	if len(f.pulls) == 0 {
		return
	}
	tips := f.mp.Tips()
	for producer, st := range f.pulls {
		if int(producer) < len(tips) && tips[producer] >= st.to {
			if st.timer != nil {
				st.timer.Stop()
			}
			delete(f.pulls, producer)
		}
	}
}

// --- recent-block retention ring ---

// pushRecentBlock records a completed block for BlockRequest service.
func (f *FullNode) pushRecentBlock(blk *core.PredisBlock) {
	if f.recentBlks == nil {
		f.recentBlks = make([]*core.PredisBlock, fullNodeCatchupWindow)
	}
	f.recentBlks[int(blk.Height)%fullNodeCatchupWindow] = blk
}

// recentBlock returns the retained block at a height, or nil if evicted.
func (f *FullNode) recentBlock(height uint64) *core.PredisBlock {
	if len(f.recentBlks) == 0 || height == 0 {
		return nil
	}
	blk := f.recentBlks[int(height)%fullNodeCatchupWindow]
	if blk == nil || blk.Height != height {
		return nil
	}
	return blk
}
