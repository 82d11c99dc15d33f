package multizone

import (
	"encoding/binary"
	"sync"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/wire"
)

// Message type tags for the Multi-Zone control and data plane.
const (
	TypeStripe          = wire.TypeRangeZone + 1
	TypeSubscribe       = wire.TypeRangeZone + 2
	TypeAcceptSubscribe = wire.TypeRangeZone + 3
	TypeRejectSubscribe = wire.TypeRangeZone + 4
	TypeUnsubscribe     = wire.TypeRangeZone + 5
	TypeRelayerAlive    = wire.TypeRangeZone + 6
	TypeLeave           = wire.TypeRangeZone + 7
	TypeHeartbeat       = wire.TypeRangeZone + 8
	TypeZoneBlock       = wire.TypeRangeZone + 9
	TypeBlockDigest     = wire.TypeRangeZone + 10
	TypeGetRelayers     = wire.TypeRangeZone + 11
	TypeRelayersInfo    = wire.TypeRangeZone + 12
	TypeBlockRequest    = wire.TypeRangeZone + 13
	TypeBlockResponse   = wire.TypeRangeZone + 14
	TypeSpec            = wire.TypeRangeZone + 15
	TypeSpecDiscard     = wire.TypeRangeZone + 16
)

// StripeMsg carries one erasure-coded stripe of a bundle plus the bundle
// header and the Merkle proof that makes the stripe self-verifying
// (§IV-D).
type StripeMsg struct {
	Header     core.BundleHeader
	Index      uint8
	PayloadLen uint32
	Shard      []byte
	Proof      []crypto.Hash

	// verified memoizes a successful Merkle-proof check. The simulator
	// hands the same *StripeMsg to every recipient and messages are
	// immutable once sent, so the proof needs checking once per stripe,
	// not once per full node. Failures are never cached.
	verified bool
	// assembled memoizes the bundle reconstructed from a stripe set
	// containing this message: every valid n_c−f subset reconstructs the
	// same body (Reed–Solomon), and the result is checked against the
	// header's commitments before caching, so the memo is value-identical
	// for every node that could reassemble it.
	assembled *core.Bundle
}

var _ wire.Message = (*StripeMsg)(nil)

// Type implements wire.Message.
func (m *StripeMsg) Type() wire.Type { return TypeStripe }

// WireSize implements wire.Message.
func (m *StripeMsg) WireSize() int {
	return wire.FrameOverhead + m.Header.EncodedSize() + 1 + 4 +
		wire.SizeVarBytes(m.Shard) + 4 + crypto.HashSize*len(m.Proof)
}

// EncodeBody implements wire.Message.
func (m *StripeMsg) EncodeBody(e *wire.Encoder) {
	m.Header.EncodeTo(e)
	e.U8(m.Index)
	e.U32(m.PayloadLen)
	e.VarBytes(m.Shard)
	e.U32(uint32(len(m.Proof)))
	for _, p := range m.Proof {
		e.Bytes32(p)
	}
}

func decodeStripe(d *wire.Decoder) (wire.Message, error) {
	h, err := core.DecodeBundleHeader(d)
	if err != nil {
		return nil, err
	}
	m := &StripeMsg{Header: *h, Index: d.U8(), PayloadLen: d.U32(), Shard: d.VarBytes()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/crypto.HashSize {
		return nil, wire.ErrTruncated
	}
	m.Proof = make([]crypto.Hash, n)
	for i := range m.Proof {
		m.Proof[i] = d.Bytes32()
	}
	return m, d.Err()
}

// TamperShard implements the fault injector's StripeTamperer interface
// structurally (faults cannot import this package: multizone's tests
// import faults). It returns a copy of the stripe with shard byte i (mod
// length) flipped and no memoized state — exactly what decoding a
// corrupted frame yields — so the receiver's Merkle check must fail.
// The original is untouched: the simulator shares one pointer across all
// recipients of a multicast.
func (m *StripeMsg) TamperShard(i int) wire.Message {
	cp := &StripeMsg{Header: m.Header, Index: m.Index, PayloadLen: m.PayloadLen, Proof: m.Proof}
	cp.Shard = append([]byte(nil), m.Shard...)
	if len(cp.Shard) > 0 {
		if i < 0 {
			i = -i
		}
		cp.Shard[i%len(cp.Shard)] ^= 0xff
	}
	return cp
}

// TamperProof implements the fault injector's StripeTamperer interface:
// the returned copy carries the intact shard under a valid-length garbage
// Merkle proof derived deterministically from seed. Receivers that verify
// proofs reject it exactly like a corrupted payload.
func (m *StripeMsg) TamperProof(seed uint64) wire.Message {
	cp := &StripeMsg{Header: m.Header, Index: m.Index, PayloadLen: m.PayloadLen, Shard: m.Shard}
	cp.Proof = make([]crypto.Hash, len(m.Proof))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	for i := range cp.Proof {
		binary.LittleEndian.PutUint64(b[8:], uint64(i))
		cp.Proof[i] = crypto.HashBytes(b[:])
	}
	return cp
}

// Subscribe asks the receiver to forward the listed stripe indices.
type Subscribe struct {
	Stripes []uint8
}

var _ wire.Message = (*Subscribe)(nil)

// Type implements wire.Message.
func (m *Subscribe) Type() wire.Type { return TypeSubscribe }

// WireSize implements wire.Message.
func (m *Subscribe) WireSize() int { return wire.FrameOverhead + 4 + len(m.Stripes) }

// EncodeBody implements wire.Message.
func (m *Subscribe) EncodeBody(e *wire.Encoder) { encodeStripeList(e, m.Stripes) }

func encodeStripeList(e *wire.Encoder, ss []uint8) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.U8(s)
	}
}

func decodeStripeList(d *wire.Decoder) []uint8 {
	n := int(d.U32())
	if d.Err() != nil || n > d.Remaining() {
		return nil
	}
	out := make([]uint8, n)
	for i := range out {
		out[i] = d.U8()
	}
	return out
}

func decodeSubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &Subscribe{Stripes: decodeStripeList(d)}
	return m, d.Err()
}

// AcceptSubscribe confirms a subscription for the listed stripes.
type AcceptSubscribe struct {
	Stripes []uint8
	// FromConsensus reports whether the accepting node is a consensus
	// node; a node whose subscription a consensus node accepts becomes a
	// relayer (Alg. 1 line 16).
	FromConsensus bool
}

var _ wire.Message = (*AcceptSubscribe)(nil)

// Type implements wire.Message.
func (m *AcceptSubscribe) Type() wire.Type { return TypeAcceptSubscribe }

// WireSize implements wire.Message.
func (m *AcceptSubscribe) WireSize() int { return wire.FrameOverhead + 4 + len(m.Stripes) + 1 }

// EncodeBody implements wire.Message.
func (m *AcceptSubscribe) EncodeBody(e *wire.Encoder) {
	encodeStripeList(e, m.Stripes)
	e.Bool(m.FromConsensus)
}

func decodeAcceptSubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &AcceptSubscribe{Stripes: decodeStripeList(d), FromConsensus: d.Bool()}
	return m, d.Err()
}

// RejectSubscribe declines a subscription; Children lists alternative
// nodes the requester may subscribe to instead (§IV-D).
type RejectSubscribe struct {
	Stripes  []uint8
	Children []wire.NodeID
}

var _ wire.Message = (*RejectSubscribe)(nil)

// Type implements wire.Message.
func (m *RejectSubscribe) Type() wire.Type { return TypeRejectSubscribe }

// WireSize implements wire.Message.
func (m *RejectSubscribe) WireSize() int {
	return wire.FrameOverhead + 4 + len(m.Stripes) + wire.SizeNodeSlice(m.Children)
}

// EncodeBody implements wire.Message.
func (m *RejectSubscribe) EncodeBody(e *wire.Encoder) {
	encodeStripeList(e, m.Stripes)
	e.NodeSlice(m.Children)
}

func decodeRejectSubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &RejectSubscribe{Stripes: decodeStripeList(d), Children: d.NodeSlice()}
	return m, d.Err()
}

// Unsubscribe cancels stripe subscriptions.
type Unsubscribe struct {
	Stripes []uint8
}

var _ wire.Message = (*Unsubscribe)(nil)

// Type implements wire.Message.
func (m *Unsubscribe) Type() wire.Type { return TypeUnsubscribe }

// WireSize implements wire.Message.
func (m *Unsubscribe) WireSize() int { return wire.FrameOverhead + 4 + len(m.Stripes) }

// EncodeBody implements wire.Message.
func (m *Unsubscribe) EncodeBody(e *wire.Encoder) { encodeStripeList(e, m.Stripes) }

func decodeUnsubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &Unsubscribe{Stripes: decodeStripeList(d)}
	return m, d.Err()
}

// RelayerAlive advertises a relayer and the stripes it relays (Alg. 2). An
// empty stripe list announces demotion to an ordinary node. Version is a
// per-origin monotonic counter: receivers ignore (and do not re-forward)
// announcements older than what they already hold, which keeps the
// forwarding in Alg. 2 line 20 from circulating conflicting copies
// forever.
type RelayerAlive struct {
	Relayer wire.NodeID
	JoinSeq uint64 // network join order (paper: registration order on chain)
	Version uint64
	Stripes []uint8
	Zone    uint32
}

var _ wire.Message = (*RelayerAlive)(nil)

// Type implements wire.Message.
func (m *RelayerAlive) Type() wire.Type { return TypeRelayerAlive }

// WireSize implements wire.Message.
func (m *RelayerAlive) WireSize() int {
	return wire.FrameOverhead + 4 + 8 + 8 + 4 + len(m.Stripes) + 4
}

// EncodeBody implements wire.Message.
func (m *RelayerAlive) EncodeBody(e *wire.Encoder) {
	e.Node(m.Relayer)
	e.U64(m.JoinSeq)
	e.U64(m.Version)
	encodeStripeList(e, m.Stripes)
	e.U32(m.Zone)
}

func decodeRelayerAlive(d *wire.Decoder) (wire.Message, error) {
	m := &RelayerAlive{
		Relayer: d.Node(), JoinSeq: d.U64(), Version: d.U64(),
		Stripes: decodeStripeList(d), Zone: d.U32(),
	}
	return m, d.Err()
}

// Leave announces departure (§IV-E).
type Leave struct {
	IsRelayer bool
}

var _ wire.Message = (*Leave)(nil)

// Type implements wire.Message.
func (m *Leave) Type() wire.Type { return TypeLeave }

// WireSize implements wire.Message.
func (m *Leave) WireSize() int { return wire.FrameOverhead + 1 }

// EncodeBody implements wire.Message.
func (m *Leave) EncodeBody(e *wire.Encoder) { e.Bool(m.IsRelayer) }

func decodeLeave(d *wire.Decoder) (wire.Message, error) {
	return &Leave{IsRelayer: d.Bool()}, d.Err()
}

// Heartbeat proves liveness to neighbors (§IV-E).
type Heartbeat struct{}

var _ wire.Message = (*Heartbeat)(nil)

// Type implements wire.Message.
func (m *Heartbeat) Type() wire.Type { return TypeHeartbeat }

// WireSize implements wire.Message.
func (m *Heartbeat) WireSize() int { return wire.FrameOverhead }

// EncodeBody implements wire.Message.
func (m *Heartbeat) EncodeBody(e *wire.Encoder) {}

func decodeHeartbeat(d *wire.Decoder) (wire.Message, error) { return &Heartbeat{}, nil }

// ZoneBlock carries a Predis block through the relayer tree.
type ZoneBlock struct {
	Block *core.PredisBlock
}

var _ wire.Message = (*ZoneBlock)(nil)

// Type implements wire.Message.
func (m *ZoneBlock) Type() wire.Type { return TypeZoneBlock }

// WireSize implements wire.Message.
func (m *ZoneBlock) WireSize() int {
	// Same body as the inner block, under this message's own frame.
	return m.Block.WireSize()
}

// EncodeBody implements wire.Message.
func (m *ZoneBlock) EncodeBody(e *wire.Encoder) { m.Block.EncodeBody(e) }

func decodeZoneBlock(d *wire.Decoder) (wire.Message, error) {
	blk, err := core.DecodePredisBlockBody(d)
	if err != nil {
		return nil, err
	}
	return &ZoneBlock{Block: blk}, nil
}

// BlockDigest synchronizes ledger state over backup connections to
// neighbor zones (§IV-F): it lists the sender's latest block height and
// bundle tips so receivers can pull what they miss.
type BlockDigest struct {
	Height uint64
	Tips   []uint64
}

var _ wire.Message = (*BlockDigest)(nil)

// Type implements wire.Message.
func (m *BlockDigest) Type() wire.Type { return TypeBlockDigest }

// WireSize implements wire.Message.
func (m *BlockDigest) WireSize() int { return wire.FrameOverhead + 8 + wire.SizeU64Slice(m.Tips) }

// EncodeBody implements wire.Message.
func (m *BlockDigest) EncodeBody(e *wire.Encoder) {
	e.U64(m.Height)
	e.U64Slice(m.Tips)
}

func decodeBlockDigest(d *wire.Decoder) (wire.Message, error) {
	m := &BlockDigest{Height: d.U64(), Tips: d.U64Slice()}
	return m, d.Err()
}

// GetRelayers asks a neighbor for the zone's current relayer set (Alg. 1
// line 1).
type GetRelayers struct {
	Zone uint32
}

var _ wire.Message = (*GetRelayers)(nil)

// Type implements wire.Message.
func (m *GetRelayers) Type() wire.Type { return TypeGetRelayers }

// WireSize implements wire.Message.
func (m *GetRelayers) WireSize() int { return wire.FrameOverhead + 4 }

// EncodeBody implements wire.Message.
func (m *GetRelayers) EncodeBody(e *wire.Encoder) { e.U32(m.Zone) }

func decodeGetRelayers(d *wire.Decoder) (wire.Message, error) {
	return &GetRelayers{Zone: d.U32()}, d.Err()
}

// RelayersInfo answers GetRelayers: the known relayers of a zone with the
// stripes each relays.
type RelayersInfo struct {
	Zone     uint32
	Relayers []RelayerEntry
}

// RelayerEntry describes one relayer.
type RelayerEntry struct {
	Node    wire.NodeID
	JoinSeq uint64
	Stripes []uint8
}

var _ wire.Message = (*RelayersInfo)(nil)

// Type implements wire.Message.
func (m *RelayersInfo) Type() wire.Type { return TypeRelayersInfo }

// WireSize implements wire.Message.
func (m *RelayersInfo) WireSize() int {
	n := wire.FrameOverhead + 4 + 4
	for _, r := range m.Relayers {
		n += 4 + 8 + 4 + len(r.Stripes)
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *RelayersInfo) EncodeBody(e *wire.Encoder) {
	e.U32(m.Zone)
	e.U32(uint32(len(m.Relayers)))
	for _, r := range m.Relayers {
		e.Node(r.Node)
		e.U64(r.JoinSeq)
		encodeStripeList(e, r.Stripes)
	}
}

func decodeRelayersInfo(d *wire.Decoder) (wire.Message, error) {
	m := &RelayersInfo{Zone: d.U32()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining() {
		return nil, wire.ErrTruncated
	}
	for i := 0; i < n; i++ {
		m.Relayers = append(m.Relayers, RelayerEntry{
			Node: d.Node(), JoinSeq: d.U64(), Stripes: decodeStripeList(d),
		})
	}
	return m, d.Err()
}

// BlockRequest asks a zone/backup peer for completed Predis blocks above
// the sender's chain head. Full nodes use it to catch up after a restart
// (and to close gaps a digest reveals): peers answer from their retained
// recent-block window.
type BlockRequest struct {
	Height uint64 // requester's last completed height
}

var _ wire.Message = (*BlockRequest)(nil)

// Type implements wire.Message.
func (m *BlockRequest) Type() wire.Type { return TypeBlockRequest }

// WireSize implements wire.Message.
func (m *BlockRequest) WireSize() int { return wire.FrameOverhead + 8 }

// EncodeBody implements wire.Message.
func (m *BlockRequest) EncodeBody(e *wire.Encoder) { e.U64(m.Height) }

func decodeBlockRequest(d *wire.Decoder) (wire.Message, error) {
	return &BlockRequest{Height: d.U64()}, d.Err()
}

// BlockResponse answers BlockRequest with a contiguous run of completed
// blocks starting just above the requested height, plus the responder's
// own head. When the requester is so far behind that the bundles its
// missing blocks reference have been pruned network-wide (§III-D), the
// responder instead picks a recent Anchor block whose bundle suffix it
// can still fully serve: the requester fast-forwards its chains to the
// anchor's cut heights and replays only from there (snapshot-style sync;
// the skipped history stays available from archival ledgers only).
type BlockResponse struct {
	Head   uint64
	Anchor *core.PredisBlock // nil unless a skip-sync is needed
	Blocks []*core.PredisBlock
}

var _ wire.Message = (*BlockResponse)(nil)

// Type implements wire.Message.
func (m *BlockResponse) Type() wire.Type { return TypeBlockResponse }

// WireSize implements wire.Message.
func (m *BlockResponse) WireSize() int {
	// Embedded blocks are encoded body-only (EncodeBody), so their own
	// frame overhead must not be counted — the simulator charges exactly
	// WireSize bytes of bandwidth, and the catch-up path would otherwise
	// be billed 6 spurious bytes per block (caught by wiresym's round-trip
	// coverage requirement).
	n := wire.FrameOverhead + 8 + 1 + 4
	if m.Anchor != nil {
		n += m.Anchor.WireSize() - wire.FrameOverhead
	}
	for _, b := range m.Blocks {
		n += b.WireSize() - wire.FrameOverhead
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *BlockResponse) EncodeBody(e *wire.Encoder) {
	e.U64(m.Head)
	e.Bool(m.Anchor != nil)
	if m.Anchor != nil {
		m.Anchor.EncodeBody(e)
	}
	e.U32(uint32(len(m.Blocks)))
	for _, b := range m.Blocks {
		b.EncodeBody(e)
	}
}

func decodeBlockResponse(d *wire.Decoder) (wire.Message, error) {
	m := &BlockResponse{Head: d.U64()}
	if d.Bool() {
		anchor, err := core.DecodePredisBlockBody(d)
		if err != nil {
			return nil, err
		}
		m.Anchor = anchor
	}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining() {
		return nil, wire.ErrTruncated
	}
	for i := 0; i < n; i++ {
		blk, err := core.DecodePredisBlockBody(d)
		if err != nil {
			return nil, err
		}
		m.Blocks = append(m.Blocks, blk)
	}
	return m, d.Err()
}

// ZoneSpec pushes a *proposed* Predis block to full nodes before the
// consensus decision (streaming commit). Receivers buffer it
// speculatively — verifying the leader signature and pre-fetching the
// bundles its cuts reference — and finalize only when the matching
// ordered ZoneBlock arrives. A ZoneSpecDiscard (or a committed block
// with a different hash at the same height) retracts it.
type ZoneSpec struct {
	Block *core.PredisBlock
}

var _ wire.Message = (*ZoneSpec)(nil)

// Type implements wire.Message.
func (m *ZoneSpec) Type() wire.Type { return TypeSpec }

// WireSize implements wire.Message.
func (m *ZoneSpec) WireSize() int {
	// Same body as the inner block, under this message's own frame.
	return m.Block.WireSize()
}

// EncodeBody implements wire.Message.
func (m *ZoneSpec) EncodeBody(e *wire.Encoder) { m.Block.EncodeBody(e) }

func decodeZoneSpec(d *wire.Decoder) (wire.Message, error) {
	blk, err := core.DecodePredisBlockBody(d)
	if err != nil {
		return nil, err
	}
	return &ZoneSpec{Block: blk}, nil
}

// ZoneSpecDiscard retracts a previously pushed ZoneSpec: the consensus
// engine evicted the proposal (view change or fork loss), so full nodes
// must drop the buffered speculative block. The block is re-distributed
// via a fresh ZoneSpec if it is later proposed again.
type ZoneSpecDiscard struct {
	Height uint64
	Hash   crypto.Hash
}

var _ wire.Message = (*ZoneSpecDiscard)(nil)

// Type implements wire.Message.
func (m *ZoneSpecDiscard) Type() wire.Type { return TypeSpecDiscard }

// WireSize implements wire.Message.
func (m *ZoneSpecDiscard) WireSize() int { return wire.FrameOverhead + 8 + crypto.HashSize }

// EncodeBody implements wire.Message.
func (m *ZoneSpecDiscard) EncodeBody(e *wire.Encoder) {
	e.U64(m.Height)
	e.Bytes32(m.Hash)
}

func decodeZoneSpecDiscard(d *wire.Decoder) (wire.Message, error) {
	return &ZoneSpecDiscard{Height: d.U64(), Hash: d.Bytes32()}, d.Err()
}

var registerOnce sync.Once

// RegisterMessages registers Multi-Zone message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeStripe, "zone.stripe", decodeStripe)
		wire.Register(TypeSubscribe, "zone.subscribe", decodeSubscribe)
		wire.Register(TypeAcceptSubscribe, "zone.accept_sub", decodeAcceptSubscribe)
		wire.Register(TypeRejectSubscribe, "zone.reject_sub", decodeRejectSubscribe)
		wire.Register(TypeUnsubscribe, "zone.unsubscribe", decodeUnsubscribe)
		wire.Register(TypeRelayerAlive, "zone.relayer_alive", decodeRelayerAlive)
		wire.Register(TypeLeave, "zone.leave", decodeLeave)
		wire.Register(TypeHeartbeat, "zone.heartbeat", decodeHeartbeat)
		wire.Register(TypeZoneBlock, "zone.block", decodeZoneBlock)
		wire.Register(TypeBlockDigest, "zone.block_digest", decodeBlockDigest)
		wire.Register(TypeGetRelayers, "zone.get_relayers", decodeGetRelayers)
		wire.Register(TypeRelayersInfo, "zone.relayers_info", decodeRelayersInfo)
		wire.Register(TypeBlockRequest, "zone.block_request", decodeBlockRequest)
		wire.Register(TypeBlockResponse, "zone.block_response", decodeBlockResponse)
		wire.Register(TypeSpec, "zone.spec", decodeZoneSpec)
		wire.Register(TypeSpecDiscard, "zone.spec_discard", decodeZoneSpecDiscard)
	})
}
