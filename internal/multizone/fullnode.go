package multizone

import (
	"slices"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/obs"
	"predis/internal/wire"
)

// FullNodeConfig parameterizes a Multi-Zone full node (relayer or ordinary
// node; the role is decided dynamically by Algorithm 1).
type FullNodeConfig struct {
	// Self is this node's ID.
	Self wire.NodeID
	// Zone is the node's zone index (assigned by locality at network
	// construction, §IV-A).
	Zone int
	// JoinSeq is the node's network join order; the paper derives it from
	// the position of registration transactions on chain, we assign it at
	// construction.
	JoinSeq uint64
	// NC and F describe the consensus group; consensus node IDs are
	// 0..NC-1 and consensus node i serves stripe i.
	NC, F int
	// Striper encodes/decodes stripes (must match the consensus side).
	Striper *Striper
	// Signer verifies bundle and block signatures (any index works; only
	// verification is used).
	Signer crypto.Signer
	// ZonePeers are the other full nodes of this zone (neighbor set and
	// relayer bootstrap).
	ZonePeers []wire.NodeID
	// BackupPeers are nodes in neighboring zones for digest exchange
	// (§IV-F).
	BackupPeers []wire.NodeID
	// MaxSubscribers caps total subscriptions this node accepts (Fig. 8
	// uses 24 to equalize bandwidth with the random topology).
	MaxSubscribers int
	// AliveInterval paces relayerAlive broadcasts and relayer-count
	// checks. It also sets the bundle-pull and catch-up backoff
	// (env.DefaultBackoff(AliveInterval)) and the quarantine TTL
	// (8×AliveInterval).
	AliveInterval time.Duration
	// DigestInterval paces backup-connection digests (0 disables).
	DigestInterval time.Duration
	// OnBlockComplete fires when this node has reconstructed a full block
	// (Predis block + every referenced bundle).
	OnBlockComplete func(blk *core.PredisBlock, txs int)
	// Ledger, when non-nil, records every completed block (§II: full
	// nodes maintain the ledger history).
	Ledger *ledger.Ledger
	// Executor, when non-nil, applies each completed block's semantic
	// operations to this full node's account state machine; the
	// resulting state root is stamped into the ledger entry so the
	// persisted chain commits to execution, not just ordering.
	Executor *exec.Machine
	// ExecSerial forces the reference serial committer (see node.Config).
	ExecSerial bool
	// OnExecute observes each executed block's result.
	OnExecute func(r exec.Result)
	// StarveRewireAfter rewires a stripe subscription to an alternate
	// source after this many consecutively assembled bundles were missing
	// that stripe at assembly time while its sender had been silent for
	// 2×AliveInterval (lateness alone is never charged: bundles assemble
	// at n_c−f stripes, so the slowest sender is routinely absent at
	// assembly). A single receiver cannot distinguish withholding from
	// path loss, so the rewire heuristic is opt-in: zero (the default)
	// disables it, and the Byzantine harness enables it.
	StarveRewireAfter int
	// Trace, when non-nil, closes the stripe_distributed and
	// fullnode_delivered lifecycle spans (anchored by the consensus-side
	// distributor) when bundles assemble and blocks complete here. Nil
	// disables tracing at zero cost.
	Trace *obs.Tracer
}

const (
	// heartbeatInterval paces liveness probes.
	heartbeatInterval = time.Second
	// quarantineAfter is how many cryptographic offenses (a stripe whose
	// Merkle proof or bundle-header signature fails verification) a peer
	// may commit before this node blacklists it. Only proof/signature
	// failures count — gaps, timeouts, and losses never do — so benign
	// runs are unaffected.
	quarantineAfter = 3
	// fullNodeCatchupWindow bounds the ring of completed blocks retained
	// to serve BlockRequests from restarting peers.
	fullNodeCatchupWindow = 512
)

func (c *FullNodeConfig) withDefaults() FullNodeConfig {
	out := *c
	if out.MaxSubscribers <= 0 {
		out.MaxSubscribers = 64
	}
	if out.AliveInterval <= 0 {
		out.AliveInterval = 500 * time.Millisecond
	}
	return out
}

// relayerInfo tracks one known relayer of this node's zone. An entry with
// no stripes is a tombstone for a demoted relayer, kept so announcement
// versions stay monotonic.
type relayerInfo struct {
	joinSeq   uint64
	version   uint64
	stripes   []uint8
	lastAlive time.Time
}

// active reports whether the entry describes a live relayer (tombstones
// are not active).
func (r *relayerInfo) active() bool { return len(r.stripes) > 0 }

// partialBundle accumulates stripes for one bundle header.
type partialBundle struct {
	header  core.BundleHeader
	stripes []*StripeMsg
	have    int
	done    bool
}

// FullNode is a Multi-Zone full node: it subscribes to stripes, forwards
// them down its subscription tree, reassembles bundles, and reconstructs
// blocks from Predis blocks plus its local bundle chains.
type FullNode struct {
	cfg FullNodeConfig
	ctx env.Context
	mp  *core.Mempool
	// retry paces bundle-pull retries and restart catch-up rounds.
	retry env.Backoff
	// quarantineTTL is how long a quarantined peer stays blacklisted
	// before it may serve or receive stripes again.
	quarantineTTL time.Duration

	// Subscription state.
	stripeSender map[uint8]wire.NodeID          // who sends us each stripe
	pendingSub   map[uint8]wire.NodeID          // outstanding subscribe requests
	subscribers  map[uint8]map[wire.NodeID]bool // who we forward each stripe to
	subCount     int                            // total subscriptions accepted
	subsSorted   []wire.NodeID                  // memoized sortedSubscribers view; nil = dirty
	stripeSubs   map[uint8][]wire.NodeID        // memoized per-stripe sorted subscribers; absent = dirty
	consensusDir map[uint8]bool                 // stripes we take straight from consensus (our "relayed stripes")
	isRelayer    bool
	zoneRelayers map[wire.NodeID]*relayerInfo
	aliveVersion uint64 // our own announcement version counter

	// Data plane.
	partials map[crypto.Hash]*partialBundle // by header hash
	// partialTop is the highest partial height per producer, kept in step
	// with partials by addPartial and dropPartial so the speculative
	// pre-fetch never scans the map.
	partialTop map[wire.NodeID]uint64
	lastCuts   []uint64
	lastBlock  crypto.Hash
	lastHeight uint64
	seenBlocks map[crypto.Hash]uint64 // block hash → height, pruned as the chain advances
	pendBlocks []*core.PredisBlock    // completable once bundles arrive, in arrival order
	pulls      map[wire.NodeID]*pullState
	recentBlks []*core.PredisBlock // retention ring serving BlockRequests
	catchup    *zoneCatchup
	// specBlocks buffers speculatively pushed *proposed* blocks (streaming
	// commit) by block hash until the ordered copy finalizes them, a
	// ZoneSpecDiscard retracts them, or the TTL sweep expires them.
	specBlocks map[crypto.Hash]*specEntry

	// Periodic timers, stored so a restart can re-arm them (the fires
	// suppressed during a crash permanently kill a self-re-arming chain).
	aliveTimer     env.Timer
	heartbeatTimer env.Timer
	digestTimer    env.Timer

	// Liveness tracking.
	lastSeen map[wire.NodeID]time.Time

	// Byzantine hardening (see byzantine.go).
	offenses    map[wire.NodeID]int       // cryptographic offenses per peer
	quarantined map[wire.NodeID]time.Time // blacklist expiry per peer
	starve      map[uint8]int             // consecutive starved assemblies per stripe
	stripeSeen  map[uint8]time.Time       // last stripe-s traffic from its subscribed sender
	refetching  map[crypto.Hash]bool      // damaged bundles with a live refetch loop

	// Stats.
	bundles     uint64
	blocks      uint64
	stripesIn   uint64
	rejected    uint64
	refetches   uint64
	quarantines uint64
	rewires     uint64
	specHits    uint64 // speculative blocks the ordered chain finalized
	specWaste   uint64 // speculative blocks discarded, superseded, or expired
}

var _ env.Handler = (*FullNode)(nil)

// NewFullNode builds a full node.
func NewFullNode(cfg FullNodeConfig) (*FullNode, error) {
	c := cfg.withDefaults()
	mp, err := core.NewMempool(core.Params{
		NC: c.NC, F: c.F, BundleSize: 1, // BundleSize unused on the receive path
		Signer: c.Signer,
	})
	if err != nil {
		return nil, err
	}
	return &FullNode{
		cfg:           c,
		mp:            mp,
		retry:         env.DefaultBackoff(c.AliveInterval),
		quarantineTTL: 8 * c.AliveInterval,
		stripeSender:  make(map[uint8]wire.NodeID),
		pendingSub:    make(map[uint8]wire.NodeID),
		subscribers:   make(map[uint8]map[wire.NodeID]bool),
		stripeSubs:    make(map[uint8][]wire.NodeID),
		consensusDir:  make(map[uint8]bool),
		zoneRelayers:  make(map[wire.NodeID]*relayerInfo),
		partials:      make(map[crypto.Hash]*partialBundle),
		partialTop:    make(map[wire.NodeID]uint64),
		pulls:         make(map[wire.NodeID]*pullState),
		seenBlocks:    make(map[crypto.Hash]uint64),
		lastSeen:      make(map[wire.NodeID]time.Time),
		offenses:      make(map[wire.NodeID]int),
		quarantined:   make(map[wire.NodeID]time.Time),
		starve:        make(map[uint8]int),
		stripeSeen:    make(map[uint8]time.Time),
		refetching:    make(map[crypto.Hash]bool),
		specBlocks:    make(map[crypto.Hash]*specEntry),
		lastCuts:      core.ZeroCuts(c.NC),
	}, nil
}

// IsRelayer reports whether this node currently relays stripes from
// consensus nodes.
func (f *FullNode) IsRelayer() bool { return f.isRelayer }

// RelayedStripes returns the stripes this node takes directly from
// consensus nodes (the paper's RelayedStripes()).
func (f *FullNode) RelayedStripes() []uint8 {
	out := make([]uint8, 0, len(f.consensusDir))
	for s := range f.consensusDir {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns (stripes received, bundles assembled, blocks completed).
func (f *FullNode) Stats() (stripes, bundles, blocks uint64) {
	return f.stripesIn, f.bundles, f.blocks
}

// SpecStats returns how many speculatively delivered blocks the ordered
// chain finalized (hits) and how many were discarded, superseded, or
// expired unused (waste).
func (f *FullNode) SpecStats() (hits, waste uint64) { return f.specHits, f.specWaste }

// ID returns this node's wire identity.
func (f *FullNode) ID() wire.NodeID { return f.cfg.Self }

// LastHeight returns the height of the last completed block.
func (f *FullNode) LastHeight() uint64 { return f.lastHeight }

// Mempool exposes the node's bundle store (read-only use).
func (f *FullNode) Mempool() *core.Mempool { return f.mp }

// Start implements env.Handler: bootstrap relayer discovery, then run
// Algorithm 1.
func (f *FullNode) Start(ctx env.Context) {
	f.ctx = ctx
	f.bootstrap()
	f.armAlive()
	f.armHeartbeat()
	if f.cfg.DigestInterval > 0 && len(f.cfg.BackupPeers) > 0 {
		f.armDigest()
	}
}

// bootstrap runs relayer discovery: ask a few zone peers for the current
// relayer set (Alg. 1 line 1), give responses a beat to arrive, then
// subscribe. The first node of a zone finds no relayers and goes straight
// to the consensus nodes. Also re-run on restart.
func (f *FullNode) bootstrap() {
	asked := 0
	for _, p := range f.cfg.ZonePeers {
		if asked >= 3 {
			break
		}
		f.ctx.Send(p, &GetRelayers{Zone: uint32(f.cfg.Zone)})
		asked++
	}
	f.ctx.After(50*time.Millisecond, f.runSubscription)
}

// runSubscription is Algorithm 1: subscribe up to half of each relayer's
// relayed stripes, then take the remainder straight from consensus nodes
// (becoming a relayer).
func (f *FullNode) runSubscription() {
	needed := make([]uint8, 0, f.cfg.NC)
	for s := 0; s < f.cfg.NC; s++ {
		si := uint8(s)
		if _, have := f.stripeSender[si]; !have {
			if _, pend := f.pendingSub[si]; !pend {
				needed = append(needed, si)
			}
		}
	}
	if len(needed) == 0 {
		return
	}
	neededSet := make(map[uint8]bool, len(needed))
	for _, s := range needed {
		neededSet[s] = true
	}
	// Deterministic relayer order: by join sequence.
	type cand struct {
		id   wire.NodeID
		info *relayerInfo
	}
	cands := make([]cand, 0, len(f.zoneRelayers))
	for id, info := range f.zoneRelayers {
		if id != f.cfg.Self && info.active() && !f.isQuarantined(id) {
			cands = append(cands, cand{id, info})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].info.joinSeq < cands[j].info.joinSeq })
	for _, c := range cands {
		// Alg. 1 line 5: at most half of the relayer's stripes.
		max := (len(c.info.stripes) + 1) / 2
		var take []uint8
		for _, s := range c.info.stripes {
			if len(take) >= max {
				break
			}
			if neededSet[s] {
				take = append(take, s)
				delete(neededSet, s)
			}
		}
		if len(take) > 0 {
			f.sendSubscribe(c.id, take)
		}
	}
	// Alg. 1 lines 9-12: leftover stripes go straight to consensus node s
	// (in stripe order, so map iteration never affects the wire).
	leftover := make([]uint8, 0, len(neededSet))
	for s := range neededSet {
		leftover = append(leftover, s)
	}
	sort.Slice(leftover, func(i, j int) bool { return leftover[i] < leftover[j] })
	for _, s := range leftover {
		if f.isQuarantined(wire.NodeID(s)) {
			continue // retried once the blacklist TTL expires
		}
		f.sendSubscribe(wire.NodeID(s), []uint8{s})
	}
}

func (f *FullNode) sendSubscribe(to wire.NodeID, stripes []uint8) {
	for _, s := range stripes {
		f.pendingSub[s] = to
	}
	f.ctx.Send(to, &Subscribe{Stripes: stripes})
	// Re-run the algorithm if the subscription goes unanswered.
	f.ctx.After(4*f.cfg.AliveInterval, func() {
		stale := false
		for _, s := range stripes {
			if f.pendingSub[s] == to {
				delete(f.pendingSub, s)
				stale = true
			}
		}
		if stale {
			f.runSubscription()
		}
	})
}

// Receive implements env.Handler.
func (f *FullNode) Receive(from wire.NodeID, m wire.Message) {
	f.lastSeen[from] = f.ctx.Now()
	if f.isQuarantined(from) {
		return // blacklisted peer: everything it sends is ignored until the TTL expires
	}
	switch msg := m.(type) {
	case *StripeMsg:
		f.onStripe(from, msg)
	case *ZoneBlock:
		f.onBlock(from, msg.Block)
	case *ZoneSpec:
		f.onSpecBlock(from, msg.Block)
	case *ZoneSpecDiscard:
		f.onSpecDiscard(from, msg)
	case *Subscribe:
		f.onSubscribe(from, msg)
	case *AcceptSubscribe:
		f.onAcceptSubscribe(from, msg)
	case *RejectSubscribe:
		f.onRejectSubscribe(from, msg)
	case *Unsubscribe:
		f.onUnsubscribe(from, msg)
	case *RelayerAlive:
		f.onRelayerAlive(from, msg)
	case *GetRelayers:
		f.onGetRelayers(from, msg)
	case *RelayersInfo:
		f.onRelayersInfo(from, msg)
	case *Leave:
		f.onLeave(from, msg)
	case *Heartbeat:
		// lastSeen already updated above.
	case *BlockDigest:
		f.onDigest(from, msg)
	case *BlockRequest:
		f.onBlockRequest(from, msg)
	case *BlockResponse:
		f.onBlockResponse(from, msg)
	case *core.BundleRequest:
		f.onBundleRequest(from, msg)
	case *core.BundleResponse:
		for _, b := range msg.Bundles {
			f.storeBundle(b, true)
		}
		f.reconcilePulls()
		f.tryCompleteBlocks()
	default:
		f.ctx.Logf("multizone: unexpected %s from %d", wire.TypeName(m.Type()), from)
	}
}

// --- subscription control plane ---

func (f *FullNode) onSubscribe(from wire.NodeID, m *Subscribe) {
	if f.subCount+len(m.Stripes) > f.cfg.MaxSubscribers {
		// Refer the requester to our own subscribers (§IV-D).
		children := f.sortedSubscribers()
		if len(children) > 4 {
			children = children[:4]
		}
		f.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes, Children: children})
		return
	}
	var accepted []uint8
	for _, s := range m.Stripes {
		// We can serve a stripe we receive ourselves (or will receive).
		if _, have := f.stripeSender[s]; !have && !f.consensusDir[s] {
			if _, pend := f.pendingSub[s]; !pend {
				continue
			}
		}
		if f.subscribers[s] == nil {
			f.subscribers[s] = make(map[wire.NodeID]bool)
		}
		if !f.subscribers[s][from] {
			f.subscribers[s][from] = true
			f.subCount++
			f.subsChanged()
		}
		accepted = append(accepted, s)
	}
	if len(accepted) > 0 {
		f.ctx.Send(from, &AcceptSubscribe{Stripes: accepted, FromConsensus: false})
	}
}

func (f *FullNode) onAcceptSubscribe(from wire.NodeID, m *AcceptSubscribe) {
	became := false
	for _, s := range m.Stripes {
		if f.pendingSub[s] != from {
			continue
		}
		delete(f.pendingSub, s)
		f.stripeSender[s] = from
		f.stripeSeen[s] = f.ctx.Now() // fresh sender: full starvation grace
		if m.FromConsensus {
			f.consensusDir[s] = true
			became = true
		}
	}
	if became && !f.isRelayer {
		f.isRelayer = true
	}
	if became {
		f.broadcastAlive()
	}
}

func (f *FullNode) onRejectSubscribe(from wire.NodeID, m *RejectSubscribe) {
	// Try the suggested children, else fall back to consensus.
	for _, s := range m.Stripes {
		if f.pendingSub[s] != from {
			continue
		}
		delete(f.pendingSub, s)
		if len(m.Children) > 0 {
			child := m.Children[int(s)%len(m.Children)]
			if child != f.cfg.Self && !f.isQuarantined(child) {
				f.sendSubscribe(child, []uint8{s})
				continue
			}
		}
		f.sendSubscribe(wire.NodeID(s), []uint8{s})
	}
}

func (f *FullNode) onUnsubscribe(from wire.NodeID, m *Unsubscribe) {
	for _, s := range m.Stripes {
		if subs := f.subscribers[s]; subs != nil && subs[from] {
			delete(subs, from)
			f.subCount--
			f.subsChanged()
		}
	}
}

func (f *FullNode) onGetRelayers(from wire.NodeID, m *GetRelayers) {
	if int(m.Zone) != f.cfg.Zone {
		return
	}
	info := &RelayersInfo{Zone: m.Zone}
	ids := make([]wire.NodeID, 0, len(f.zoneRelayers))
	for id := range f.zoneRelayers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if r := f.zoneRelayers[id]; r.active() {
			info.Relayers = append(info.Relayers, RelayerEntry{Node: id, JoinSeq: r.joinSeq, Stripes: r.stripes})
		}
	}
	if f.isRelayer {
		info.Relayers = append(info.Relayers, RelayerEntry{
			Node: f.cfg.Self, JoinSeq: f.cfg.JoinSeq, Stripes: f.RelayedStripes(),
		})
	}
	f.ctx.Send(from, info)
}

func (f *FullNode) onRelayersInfo(from wire.NodeID, m *RelayersInfo) {
	for _, r := range m.Relayers {
		if r.Node == f.cfg.Self || f.isQuarantined(r.Node) {
			continue
		}
		// Bootstrap info carries no version; only fill gaps so it never
		// rolls back fresher relayerAlive state.
		if _, known := f.zoneRelayers[r.Node]; known {
			continue
		}
		f.zoneRelayers[r.Node] = &relayerInfo{
			joinSeq: r.JoinSeq, stripes: r.Stripes, lastAlive: f.ctx.Now(),
		}
	}
}

// onRelayerAlive is Algorithm 2.
func (f *FullNode) onRelayerAlive(from wire.NodeID, m *RelayerAlive) {
	if int(m.Zone) != f.cfg.Zone || m.Relayer == f.cfg.Self {
		return
	}
	if f.isQuarantined(m.Relayer) {
		return // a blacklisted relayer cannot advertise itself back into the tree
	}
	prev := f.zoneRelayers[m.Relayer]
	if prev != nil && m.Version <= prev.version {
		// Stale or duplicate announcement: refresh liveness, never
		// re-forward (conflicting copies would otherwise circulate and
		// toggle state forever).
		if m.Version == prev.version {
			prev.lastAlive = f.ctx.Now()
		}
		return
	}
	// Fresh version: store it (demotions keep a tombstone entry so the
	// version stays monotonic).
	f.zoneRelayers[m.Relayer] = &relayerInfo{
		joinSeq: m.JoinSeq, version: m.Version, stripes: m.Stripes,
		lastAlive: f.ctx.Now(),
	}
	changed := prev == nil || !stripesEqual(prev.stripes, m.Stripes)

	if f.isRelayer && len(m.Stripes) > 0 {
		// Lines 7-13: overlap resolution. The paper's intent (Fig. 3(d))
		// is one consensus-direct relayer per stripe per zone; redundant
		// relayers hand shared stripes over and eventually demote. We use
		// a deterministic pairwise rule both sides can evaluate from the
		// announcement alone: for each shared stripe, the relayer with
		// the larger consensus-direct set yields it (join order breaks
		// ties, later yields), so exactly one side acts.
		shared := intersectStripes(f.RelayedStripes(), m.Stripes)
		theirCount := len(m.Stripes)
		yielded := false
		for _, s := range shared {
			myCount := len(f.consensusDir)
			if myCount > theirCount || (myCount == theirCount && f.cfg.JoinSeq > m.JoinSeq) {
				f.handOffStripe(s, m.Relayer)
				yielded = true
			}
		}
		if yielded {
			f.broadcastAlive()
		}
		// Lines 14-18: if our sender for a stripe no longer relays it, and
		// this relayer does, resubscribe to it.
		for _, s := range m.Stripes {
			sd, ok := f.stripeSender[s]
			if !ok || sd == m.Relayer || f.consensusDir[s] {
				continue
			}
			if info, known := f.zoneRelayers[sd]; known && info.active() && !containsStripe(info.stripes, s) {
				f.resubscribe(s, m.Relayer)
			}
		}
	}

	// Line 20: forward fresh information to zone neighbors.
	if changed {
		for _, p := range f.cfg.ZonePeers {
			if p != from && p != m.Relayer {
				f.ctx.Send(p, m)
			}
		}
	}

	// Lines 21-23: demote ourselves if we relay nothing anymore.
	if f.isRelayer && len(f.consensusDir) == 0 {
		f.demote()
	}
}

// handOffStripe stops taking a stripe from its consensus node and
// subscribes to the given relayer instead (Alg. 2's redundancy squeeze).
func (f *FullNode) handOffStripe(s uint8, to wire.NodeID) {
	if f.consensusDir[s] {
		delete(f.consensusDir, s)
		f.ctx.Send(wire.NodeID(s), &Unsubscribe{Stripes: []uint8{s}})
	}
	delete(f.stripeSender, s)
	f.sendSubscribe(to, []uint8{s})
}

// resubscribe moves one stripe to a new sender.
func (f *FullNode) resubscribe(s uint8, to wire.NodeID) {
	if old, ok := f.stripeSender[s]; ok {
		f.ctx.Send(old, &Unsubscribe{Stripes: []uint8{s}})
		delete(f.stripeSender, s)
	}
	f.sendSubscribe(to, []uint8{s})
}

func (f *FullNode) demote() {
	f.isRelayer = false
	direct := make([]uint8, 0, len(f.consensusDir))
	for s := range f.consensusDir {
		direct = append(direct, s)
	}
	sort.Slice(direct, func(i, j int) bool { return direct[i] < direct[j] })
	for _, s := range direct {
		f.ctx.Send(wire.NodeID(s), &Unsubscribe{Stripes: []uint8{s}})
		delete(f.consensusDir, s)
	}
	f.aliveVersion++
	alive := &RelayerAlive{
		Relayer: f.cfg.Self, JoinSeq: f.cfg.JoinSeq,
		Version: f.aliveVersion, Zone: uint32(f.cfg.Zone),
	}
	for _, p := range f.cfg.ZonePeers {
		f.ctx.Send(p, alive)
	}
}

func (f *FullNode) broadcastAlive() {
	if !f.isRelayer {
		return
	}
	f.aliveVersion++
	alive := &RelayerAlive{
		Relayer: f.cfg.Self, JoinSeq: f.cfg.JoinSeq, Version: f.aliveVersion,
		Stripes: f.RelayedStripes(), Zone: uint32(f.cfg.Zone),
	}
	for _, p := range f.cfg.ZonePeers {
		f.ctx.Send(p, alive)
	}
}

// armAlive runs the periodic relayer maintenance (§IV-E): broadcast
// relayerAlive, expire dead relayers, and promote ourselves when the zone
// has fewer than n_c relayers.
func (f *FullNode) armAlive() {
	f.aliveTimer = f.ctx.After(f.cfg.AliveInterval, func() {
		now := f.ctx.Now()
		for id, info := range f.zoneRelayers {
			if now.Sub(info.lastAlive) > 6*f.cfg.AliveInterval {
				delete(f.zoneRelayers, id)
			}
		}
		f.broadcastAlive()
		f.sweepDataPlane()
		count := 0
		for _, info := range f.zoneRelayers {
			if info.active() {
				count++
			}
		}
		if f.isRelayer {
			count++
		}
		if count < f.cfg.NC && !f.isRelayer {
			// Become a new relayer: take over stripes with no live relayer,
			// or stripe (JoinSeq mod NC) as a deterministic fallback.
			covered := make(map[uint8]bool)
			for _, info := range f.zoneRelayers {
				for _, s := range info.stripes {
					covered[s] = true
				}
			}
			promoted := false
			for s := 0; s < f.cfg.NC; s++ {
				if !covered[uint8(s)] {
					f.sendSubscribe(wire.NodeID(s), []uint8{uint8(s)})
					promoted = true
				}
			}
			if !promoted {
				s := uint8(f.cfg.JoinSeq % uint64(f.cfg.NC))
				f.sendSubscribe(wire.NodeID(s), []uint8{s})
			}
		}
		// Subscription repair: any stripe without a sender or pending
		// request gets re-run through Algorithm 1.
		f.runSubscription()
		f.armAlive()
	})
}

func (f *FullNode) armHeartbeat() {
	f.heartbeatTimer = f.ctx.After(heartbeatInterval, func() {
		hb := &Heartbeat{}
		sent := make(map[wire.NodeID]bool)
		targets := make([]wire.NodeID, 0, len(f.stripeSender)+f.subCount)
		for _, sd := range f.stripeSender {
			if !sent[sd] {
				sent[sd] = true
				targets = append(targets, sd)
			}
		}
		for _, id := range f.sortedSubscribers() {
			if !sent[id] {
				sent[id] = true
				targets = append(targets, id)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, id := range targets {
			f.ctx.Send(id, hb)
		}
		// Expire dead senders and resubscribe (§IV-E).
		now := f.ctx.Now()
		for s, sd := range f.stripeSender {
			if seen, ok := f.lastSeen[sd]; ok && now.Sub(seen) > 3*heartbeatInterval {
				delete(f.stripeSender, s)
				delete(f.consensusDir, s)
			}
		}
		// Expire dead subscribers too: a crashed child would otherwise keep
		// consuming a subscription slot (and forwarding bandwidth) forever.
		for s, subs := range f.subscribers {
			for id := range subs {
				if seen, ok := f.lastSeen[id]; ok && now.Sub(seen) > 3*heartbeatInterval {
					delete(subs, id)
					f.subCount--
					f.subsChanged()
				}
			}
			if len(subs) == 0 {
				delete(f.subscribers, s)
			}
		}
		f.armHeartbeat()
	})
}

// subsChanged invalidates the memoized sorted-subscriber views; every
// mutation of f.subscribers must call it.
func (f *FullNode) subsChanged() {
	f.subsSorted = nil
	clear(f.stripeSubs)
}

// stripeSubscribers returns one stripe's subscriber IDs in ascending
// order, memoized like sortedSubscribers: every stripe of every bundle
// fans out through it. Callers must not retain or mutate the result.
func (f *FullNode) stripeSubscribers(s uint8) []wire.NodeID {
	ids, ok := f.stripeSubs[s]
	if !ok {
		ids = f.sortStripeSubscribers(s)
	}
	return ids
}

// sortStripeSubscribers rebuilds and memoizes one stripe's sorted view.
//
//predis:coldpath
func (f *FullNode) sortStripeSubscribers(s uint8) []wire.NodeID {
	subs := f.subscribers[s]
	ids := make([]wire.NodeID, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	f.stripeSubs[s] = ids
	return ids
}

// sortedSubscribers returns the distinct subscriber IDs across all stripes
// in ascending order (deterministic fan-out helper). The view is memoized
// between subscription changes: block fan-out, heartbeats, and digests all
// walk it, so rebuilding the dedup map + sort per call shows up in
// profiles. Callers must not retain or mutate the returned slice.
func (f *FullNode) sortedSubscribers() []wire.NodeID {
	if f.subsSorted == nil {
		seen := make(map[wire.NodeID]bool, f.subCount)
		out := make([]wire.NodeID, 0, f.subCount)
		for _, subs := range f.subscribers {
			for id := range subs {
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		f.subsSorted = out
	}
	return f.subsSorted
}

// Leave announces departure and hands relayer duty to the earliest
// subscriber (§IV-E).
func (f *FullNode) Leave() {
	if f.ctx == nil {
		return
	}
	msg := &Leave{IsRelayer: f.isRelayer}
	if f.isRelayer {
		if first, ok := f.earliestSubscriber(); ok {
			f.ctx.Send(first, msg)
		}
		return
	}
	for _, id := range f.sortedSubscribers() {
		f.ctx.Send(id, msg)
	}
}

func (f *FullNode) earliestSubscriber() (wire.NodeID, bool) {
	best := wire.NoNode
	for _, subs := range f.subscribers {
		for id := range subs {
			if best == wire.NoNode || id < best {
				best = id
			}
		}
	}
	return best, best != wire.NoNode
}

func (f *FullNode) onLeave(from wire.NodeID, m *Leave) {
	// Our sender is going away: resubscribe its stripes. If it was a
	// relayer, we take its place by going straight to consensus (§IV-E).
	lost := make([]uint8, 0, 4)
	for s, sd := range f.stripeSender {
		if sd == from {
			lost = append(lost, s)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	for _, s := range lost {
		delete(f.stripeSender, s)
		delete(f.consensusDir, s)
		if m.IsRelayer {
			f.sendSubscribe(wire.NodeID(s), []uint8{s})
		}
	}
	delete(f.zoneRelayers, from)
	if !m.IsRelayer {
		f.runSubscription()
	}
}

// --- helpers ---

func stripesEqual(a, b []uint8) bool {
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

func intersectStripes(a, b []uint8) []uint8 {
	set := make(map[uint8]bool, len(b))
	for _, s := range b {
		set[s] = true
	}
	var out []uint8
	for _, s := range a {
		if set[s] {
			out = append(out, s)
		}
	}
	return out
}

func containsStripe(ss []uint8, s uint8) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
