package core

import (
	"sync"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// Message type tags for the Predis data plane.
const (
	TypeBundle           = wire.TypeRangeCore + 1
	TypeBundleRequest    = wire.TypeRangeCore + 2
	TypeBundleResponse   = wire.TypeRangeCore + 3
	TypeConflictEvidence = wire.TypeRangeCore + 4
	TypePredisBlock      = wire.TypeRangeCore + 5
	TypeCatchupRequest   = wire.TypeRangeCore + 6
	TypeCatchupResponse  = wire.TypeRangeCore + 7
)

// BundleMsg carries one bundle between consensus nodes.
type BundleMsg struct {
	Bundle *Bundle
}

var _ wire.Message = (*BundleMsg)(nil)

// Type implements wire.Message.
func (m *BundleMsg) Type() wire.Type { return TypeBundle }

// WireSize implements wire.Message.
func (m *BundleMsg) WireSize() int { return wire.FrameOverhead + m.Bundle.EncodedSize() }

// EncodeBody implements wire.Message.
func (m *BundleMsg) EncodeBody(e *wire.Encoder) { m.Bundle.EncodeTo(e) }

func decodeBundleMsg(d *wire.Decoder) (wire.Message, error) {
	b, err := DecodeBundle(d)
	if err != nil {
		return nil, err
	}
	return &BundleMsg{Bundle: b}, nil
}

// BundleRequest asks a peer for bundles [From, To] on one chain (§III-D:
// missing bundles are requested from producers and other available nodes).
type BundleRequest struct {
	Producer wire.NodeID
	From, To uint64
}

var _ wire.Message = (*BundleRequest)(nil)

// Type implements wire.Message.
func (m *BundleRequest) Type() wire.Type { return TypeBundleRequest }

// WireSize implements wire.Message.
func (m *BundleRequest) WireSize() int { return wire.FrameOverhead + 4 + 8 + 8 }

// EncodeBody implements wire.Message.
func (m *BundleRequest) EncodeBody(e *wire.Encoder) {
	e.Node(m.Producer)
	e.U64(m.From)
	e.U64(m.To)
}

func decodeBundleRequest(d *wire.Decoder) (wire.Message, error) {
	m := &BundleRequest{Producer: d.Node(), From: d.U64(), To: d.U64()}
	return m, d.Err()
}

// BundleResponse returns requested bundles (possibly a subset, if the
// responder does not hold them all).
type BundleResponse struct {
	Bundles []*Bundle
}

var _ wire.Message = (*BundleResponse)(nil)

// Type implements wire.Message.
func (m *BundleResponse) Type() wire.Type { return TypeBundleResponse }

// WireSize implements wire.Message.
func (m *BundleResponse) WireSize() int {
	n := wire.FrameOverhead + 4
	for _, b := range m.Bundles {
		n += b.EncodedSize()
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *BundleResponse) EncodeBody(e *wire.Encoder) {
	e.U32(uint32(len(m.Bundles)))
	for _, b := range m.Bundles {
		b.EncodeTo(e)
	}
}

func decodeBundleResponse(d *wire.Decoder) (wire.Message, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining() { // each bundle is ≥ 1 byte; cheap sanity bound
		return nil, wire.ErrTruncated
	}
	out := make([]*Bundle, 0, n)
	for i := 0; i < n; i++ {
		b, err := DecodeBundle(d)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return &BundleResponse{Bundles: out}, d.Err()
}

// ConflictEvidence proves a producer equivocated: two validly signed
// headers share a producer and parent but differ (§III-A). Receivers that
// verify it add the producer to their ban list and forward the evidence.
type ConflictEvidence struct {
	A, B BundleHeader
}

var _ wire.Message = (*ConflictEvidence)(nil)

// Type implements wire.Message.
func (m *ConflictEvidence) Type() wire.Type { return TypeConflictEvidence }

// WireSize implements wire.Message.
func (m *ConflictEvidence) WireSize() int {
	return wire.FrameOverhead + m.A.EncodedSize() + m.B.EncodedSize()
}

// EncodeBody implements wire.Message.
func (m *ConflictEvidence) EncodeBody(e *wire.Encoder) {
	m.A.EncodeTo(e)
	m.B.EncodeTo(e)
}

func decodeConflictEvidence(d *wire.Decoder) (wire.Message, error) {
	a, err := DecodeBundleHeader(d)
	if err != nil {
		return nil, err
	}
	b, err := DecodeBundleHeader(d)
	if err != nil {
		return nil, err
	}
	return &ConflictEvidence{A: *a, B: *b}, d.Err()
}

// Verify checks the evidence cryptographically: both headers validly
// signed by the same producer, same parent, different identity.
func (m *ConflictEvidence) Verify(signer crypto.Signer) bool {
	if m.A.Producer != m.B.Producer {
		return false
	}
	if m.A.Parent != m.B.Parent {
		return false
	}
	ha, hb := m.A.Hash(), m.B.Hash()
	if ha == hb {
		return false
	}
	idx := int(m.A.Producer)
	return signer.Verify(idx, ha, m.A.Sig) && signer.Verify(idx, hb, m.B.Sig)
}

// Cut pins one chain in a Predis block: every bundle at height ≤ Height is
// confirmed, and Head must equal the header hash at exactly Height. A
// single hash pins the whole prefix because headers chain by parent hash
// (Theorem 3.2).
type Cut struct {
	Height uint64
	Head   crypto.Hash
}

// PredisBlock is the paper's constant-size proposal (§III-B): it carries no
// transactions, only one (height, head-hash) cut per chain plus a Merkle
// root binding the included bundles. Its size is Θ(n_c) regardless of how
// many transactions it maps to.
type PredisBlock struct {
	// Height is the consensus sequence number of this block.
	Height uint64
	// Parent is the hash of the previous Predis block (zero for the
	// first).
	Parent crypto.Hash
	// Leader is the proposing node.
	Leader wire.NodeID
	// Cuts has one entry per bundle chain, indexed by producer.
	Cuts []Cut
	// TxRoot is the Merkle root over the header hashes of every newly
	// confirmed bundle, in (chain, height) order. Header hashes commit to
	// transaction roots, so this binds the block's full transaction set.
	TxRoot crypto.Hash
	// Sig is the leader's signature over Hash().
	Sig []byte
}

var _ wire.Message = (*PredisBlock)(nil)

// Type implements wire.Message.
func (m *PredisBlock) Type() wire.Type { return TypePredisBlock }

// WireSize implements wire.Message.
func (m *PredisBlock) WireSize() int {
	return wire.FrameOverhead + 8 + 32 + 4 + 4 + len(m.Cuts)*(8+32) + 32 + wire.SizeVarBytes(m.Sig)
}

func (m *PredisBlock) encodeUnsigned(e *wire.Encoder) {
	e.U64(m.Height)
	e.Bytes32(m.Parent)
	e.Node(m.Leader)
	e.U32(uint32(len(m.Cuts)))
	for _, c := range m.Cuts {
		e.U64(c.Height)
		e.Bytes32(c.Head)
	}
	e.Bytes32(m.TxRoot)
}

// EncodeBody implements wire.Message.
func (m *PredisBlock) EncodeBody(e *wire.Encoder) {
	m.encodeUnsigned(e)
	e.VarBytes(m.Sig)
}

// DecodePredisBlockBody decodes a Predis block body (no frame); other
// packages reuse it to embed blocks in their own message types.
func DecodePredisBlockBody(d *wire.Decoder) (*PredisBlock, error) {
	m, err := decodePredisBlock(d)
	if err != nil {
		return nil, err
	}
	return m.(*PredisBlock), nil
}

func decodePredisBlock(d *wire.Decoder) (wire.Message, error) {
	m := &PredisBlock{
		Height: d.U64(),
		Parent: d.Bytes32(),
		Leader: d.Node(),
	}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/40 {
		return nil, wire.ErrTruncated
	}
	m.Cuts = make([]Cut, n)
	for i := range m.Cuts {
		m.Cuts[i] = Cut{Height: d.U64(), Head: d.Bytes32()}
	}
	m.TxRoot = d.Bytes32()
	m.Sig = d.VarBytes()
	return m, d.Err()
}

// Hash returns the block identity (all fields except the signature).
func (m *PredisBlock) Hash() crypto.Hash {
	e := wire.NewEncoder(m.WireSize())
	m.encodeUnsigned(e)
	return crypto.HashBytes(e.Bytes())
}

// CatchupRequest asks a peer for committed Predis blocks above the
// sender's ledger head (crash recovery, ISSUE 1 tentpole 2). Height is
// the sender's last executed consensus height; the responder answers with
// consecutive blocks Height+1, Height+2, ...
type CatchupRequest struct {
	Height uint64
}

var _ wire.Message = (*CatchupRequest)(nil)

// Type implements wire.Message.
func (m *CatchupRequest) Type() wire.Type { return TypeCatchupRequest }

// WireSize implements wire.Message.
func (m *CatchupRequest) WireSize() int { return wire.FrameOverhead + 8 }

// EncodeBody implements wire.Message.
func (m *CatchupRequest) EncodeBody(e *wire.Encoder) { e.U64(m.Height) }

func decodeCatchupRequest(d *wire.Decoder) (wire.Message, error) {
	m := &CatchupRequest{Height: d.U64()}
	return m, d.Err()
}

// CatchupResponse returns the responder's head height plus consecutive
// committed blocks starting right above the requested height (empty when
// the responder has nothing newer, or when the requested height has
// already left its retention window).
type CatchupResponse struct {
	Head   uint64
	Blocks []*PredisBlock
}

var _ wire.Message = (*CatchupResponse)(nil)

// Type implements wire.Message.
func (m *CatchupResponse) Type() wire.Type { return TypeCatchupResponse }

// WireSize implements wire.Message.
func (m *CatchupResponse) WireSize() int {
	n := wire.FrameOverhead + 8 + 4
	for _, b := range m.Blocks {
		n += b.WireSize() - wire.FrameOverhead
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *CatchupResponse) EncodeBody(e *wire.Encoder) {
	e.U64(m.Head)
	e.U32(uint32(len(m.Blocks)))
	for _, b := range m.Blocks {
		b.EncodeBody(e)
	}
}

func decodeCatchupResponse(d *wire.Decoder) (wire.Message, error) {
	m := &CatchupResponse{Head: d.U64()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/40 {
		return nil, wire.ErrTruncated
	}
	for i := 0; i < n; i++ {
		b, err := DecodePredisBlockBody(d)
		if err != nil {
			return nil, err
		}
		m.Blocks = append(m.Blocks, b)
	}
	return m, d.Err()
}

var registerOnce sync.Once

// RegisterMessages registers Predis data-plane message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeBundle, "core.bundle", decodeBundleMsg)
		wire.Register(TypeBundleRequest, "core.bundle_req", decodeBundleRequest)
		wire.Register(TypeBundleResponse, "core.bundle_resp", decodeBundleResponse)
		wire.Register(TypeConflictEvidence, "core.conflict", decodeConflictEvidence)
		wire.Register(TypePredisBlock, "core.predis_block", decodePredisBlock)
		wire.Register(TypeCatchupRequest, "core.catchup_req", decodeCatchupRequest)
		wire.Register(TypeCatchupResponse, "core.catchup_resp", decodeCatchupResponse)
	})
}
