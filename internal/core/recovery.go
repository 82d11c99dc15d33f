package core

import (
	"errors"
	"sort"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/wire"
)

// This file implements the crash-recovery catch-up protocol (ISSUE 1
// tentpole 2). A restarted consensus node rejoins with its persistent
// state (mempool, ledger head) but has missed every block committed while
// it was down, and PBFT never resends old commits. The node therefore
// asks f+1 peers for committed blocks above its head, adopts a block at
// height h only once f+1 distinct peers returned the *same* block there
// (at least one of them is honest, and two different blocks can never
// both gather f+1 vouchers), replays each adopted block through the
// normal mempool validation path — issuing ordinary bundle fetches for
// any bodies it misses — and finally fast-forwards its consensus engine
// so it can take part in the live heights again.

var _ env.Restartable = (*Predis)(nil)

// catchupVote accumulates peer vouchers for one block hash at one height.
type catchupVote struct {
	block *PredisBlock
	peers map[wire.NodeID]bool
}

// catchupState is the in-flight recovery of one Predis instance.
type catchupState struct {
	attempt int
	timer   env.Timer
	// votes[height][hash] — vouchers survive retry rounds, so honest
	// replies accumulate across target rotations.
	votes map[uint64]map[crypto.Hash]*catchupVote
	// heads records each peer's most recent head claim; catch-up is done
	// once f+1 peers claim a head at or below ours.
	heads map[wire.NodeID]uint64
}

// CatchingUp reports whether a catch-up is in flight.
func (p *Predis) CatchingUp() bool { return p.catchup != nil }

// OnRestart implements env.Restartable: re-arm the production timer chain
// (crash suppression killed it), discard fetch state whose retry timers
// died with the crash, and start catch-up toward the live chain head.
func (p *Predis) OnRestart() {
	if p.ctx == nil {
		return
	}
	if p.produceTimer != nil {
		p.produceTimer.Stop()
	}
	p.armProduceTimer()
	for producer := range p.fetches {
		p.clearFetch(producer)
	}
	p.lastAdvertised = nil
	p.StartCatchup()
}

// StartCatchup begins (or restarts) the committed-block catch-up
// protocol. It is idempotent while a catch-up is running.
func (p *Predis) StartCatchup() {
	if p.catchup != nil {
		return
	}
	p.catchup = &catchupState{
		votes: make(map[uint64]map[crypto.Hash]*catchupVote),
		heads: make(map[wire.NodeID]uint64),
	}
	p.sendCatchupRound()
}

// catchupTargets picks f+1 peers for one request round, rotating with the
// attempt counter so an unresponsive peer cannot stall recovery.
func (p *Predis) catchupTargets(attempt int) []wire.NodeID {
	others := make([]wire.NodeID, 0, len(p.opts.Peers))
	for _, peer := range p.opts.Peers {
		if peer != p.opts.Self {
			others = append(others, peer)
		}
	}
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	k := p.mp.params.F + 1
	if k > len(others) {
		k = len(others)
	}
	out := make([]wire.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, others[(attempt*k+i)%len(others)])
	}
	return out
}

func (p *Predis) sendCatchupRound() {
	cu := p.catchup
	if cu == nil {
		return
	}
	req := &CatchupRequest{Height: p.lastHeight}
	for _, peer := range p.catchupTargets(cu.attempt) {
		p.ctx.Send(peer, req)
	}
	cu.attempt++
	delay := p.retry.Delay(cu.attempt-1, p.ctx.Rand())
	cu.timer = p.ctx.After(delay, p.sendCatchupRound)
}

// onCatchupRequest serves committed blocks from the recent-block ring.
func (p *Predis) onCatchupRequest(from wire.NodeID, req *CatchupRequest) {
	resp := &CatchupResponse{Head: p.lastHeight}
	for h := req.Height + 1; h <= p.lastHeight; h++ {
		blk := p.recentBlock(h)
		if blk == nil {
			// The requested height left our retention window; without the
			// contiguous prefix the requester cannot validate anything we
			// send, so answer with the head only.
			resp.Blocks = nil
			break
		}
		resp.Blocks = append(resp.Blocks, blk)
		if len(resp.Blocks) >= maxCatchupBlocks {
			break
		}
	}
	p.ctx.Send(from, resp)
}

func (p *Predis) onCatchupResponse(from wire.NodeID, resp *CatchupResponse) {
	cu := p.catchup
	if cu == nil {
		return
	}
	cu.heads[from] = resp.Head
	for _, blk := range resp.Blocks {
		if blk == nil || blk.Height <= p.lastHeight {
			continue
		}
		byHash, ok := cu.votes[blk.Height]
		if !ok {
			byHash = make(map[crypto.Hash]*catchupVote)
			cu.votes[blk.Height] = byHash
		}
		h := blk.Hash()
		v, ok := byHash[h]
		if !ok {
			v = &catchupVote{block: blk, peers: make(map[wire.NodeID]bool)}
			byHash[h] = v
		}
		v.peers[from] = true
	}
	p.advanceCatchup()
}

// advanceCatchup applies every contiguous block that has gathered f+1
// vouchers and validates cleanly, then checks for completion. It is also
// re-entered whenever a missing bundle arrives, so a block whose bodies
// were pruned-and-refetched resumes automatically.
func (p *Predis) advanceCatchup() {
	cu := p.catchup
	if cu == nil {
		return
	}
	for {
		blk := p.quorumBlockAt(p.lastHeight + 1)
		if blk == nil {
			break
		}
		missing, err := p.mp.ValidatePredisBlock(blk, p.lastBlockHash, p.mp.Confirmed())
		if errors.Is(err, ErrBlockMissing) {
			for i := range missing {
				p.requestMissing(&missing[i])
			}
			return // resume from onBundle once the bodies arrive
		}
		if err != nil {
			// An invalid block can never have f+1 honest vouchers; this is
			// a poisoned vote set (or our state diverged). Drop the height's
			// votes and let the retry round refill them.
			p.ctx.Logf("predis: catchup block %d invalid: %v", blk.Height, err)
			delete(cu.votes, blk.Height)
			return
		}
		delete(cu.votes, blk.Height)
		p.commitBlock(blk.Height, blk)
		if ff, ok := p.engine.(consensus.FastForwarder); ok {
			ff.FastForward(blk.Height, blk)
		}
	}
	// Completion: f+1 peers report a head at or below ours, so at least
	// one honest peer agrees we reached the live chain head.
	agree := 0
	for _, head := range cu.heads {
		if head <= p.lastHeight {
			agree++
		}
	}
	if agree >= p.mp.params.F+1 {
		p.finishCatchup()
	}
}

// quorumBlockAt returns the unique block at height with ≥ f+1 vouchers,
// or nil. Two distinct blocks cannot both reach f+1: that would need an
// honest voucher for each, and honest nodes never report different
// committed blocks at one height.
func (p *Predis) quorumBlockAt(height uint64) *PredisBlock {
	cu := p.catchup
	byHash, ok := cu.votes[height]
	if !ok {
		return nil
	}
	for _, v := range byHash {
		if len(v.peers) >= p.mp.params.F+1 {
			return v.block
		}
	}
	return nil
}

func (p *Predis) finishCatchup() {
	cu := p.catchup
	if cu == nil {
		return
	}
	if cu.timer != nil {
		cu.timer.Stop()
	}
	p.catchup = nil
	p.ctx.Logf("predis: catchup complete at height %d after %d rounds", p.lastHeight, cu.attempt)
	p.poke()
}

// --- recent-block ring ---

// pushRecent records a committed block in the retention ring serving
// CatchupRequests.
func (p *Predis) pushRecent(blk *PredisBlock) {
	if p.recent == nil {
		p.recent = make([]*PredisBlock, catchupWindow)
	}
	p.recent[int(blk.Height)%catchupWindow] = blk
}

// recentBlock returns the retained committed block at the given height,
// or nil when it has been evicted (or was never committed here).
func (p *Predis) recentBlock(height uint64) *PredisBlock {
	if len(p.recent) == 0 || height == 0 {
		return nil
	}
	blk := p.recent[int(height)%catchupWindow]
	if blk == nil || blk.Height != height {
		return nil
	}
	return blk
}
