// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI'99) as a leader-based consensus engine over the env runtime:
// pre-prepare / prepare / commit quorums, sequential proposals, and a view
// change protocol for leader replacement.
//
// It stands in for BFT-SMaRt in the paper's evaluation: BFT-SMaRt's
// Mod-SMaRt ordering core is PBFT-shaped (leader-driven three-phase commit
// with view synchronization), and the paper uses it purely as a block
// ordering substrate. The engine is content-agnostic: payloads come from a
// consensus.Application, which is either the baseline transaction-batch
// app (vanilla PBFT) or the Predis app (P-PBFT).
package pbft

import (
	"encoding/binary"
	"sync"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// Message type tags.
const (
	TypePrePrepare    = wire.TypeRangePBFT + 1
	TypePrepare       = wire.TypeRangePBFT + 2
	TypeCommit        = wire.TypeRangePBFT + 3
	TypeViewChange    = wire.TypeRangePBFT + 4
	TypeNewView       = wire.TypeRangePBFT + 5
	TypeStatusRequest = wire.TypeRangePBFT + 6
	TypeStatusReply   = wire.TypeRangePBFT + 7
	TypeProposalProof = wire.TypeRangePBFT + 8
	TypeEvidence      = wire.TypeRangePBFT + 9
)

// voteKind distinguishes the digests signed in each phase so a prepare
// signature can never be replayed as a commit.
type voteKind byte

const (
	kindPrePrepare voteKind = 1
	kindPrepare    voteKind = 2
	kindCommit     voteKind = 3
	kindViewChange voteKind = 4
	kindNewView    voteKind = 5
	kindStatus     voteKind = 6
)

// voteDigest derives the signing digest for a phase vote: SHA-256 over
// kind, view and seq (big-endian, as the wire codec writes them) and the
// digest, built in a 49-byte stack array.
//
//predis:hotpath
func voteDigest(kind voteKind, view, seq uint64, d crypto.Hash) crypto.Hash {
	var buf [1 + 8 + 8 + crypto.HashSize]byte
	buf[0] = byte(kind)
	binary.BigEndian.PutUint64(buf[1:], view)
	binary.BigEndian.PutUint64(buf[9:], seq)
	copy(buf[17:], d[:])
	return crypto.HashBytes(buf[:])
}

// PrePrepare is the leader's proposal for (view, seq). The payload is a
// nested application message (a transaction batch or a Predis block).
type PrePrepare struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Hash
	Payload wire.Message
	Leader  wire.NodeID
	Sig     []byte

	// payloadEnc memoizes the marshaled Payload frame so proposing to n
	// replicas across three phases encodes the block once, not O(n) times
	// — and so WireSize stops re-walking the payload on every Send.
	payloadEnc wire.EncCache
}

var _ wire.Message = (*PrePrepare)(nil)

// Type implements wire.Message.
func (m *PrePrepare) Type() wire.Type { return TypePrePrepare }

// WireSize implements wire.Message.
func (m *PrePrepare) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 32 + 4 + 4 + m.payloadEnc.FrameSize(m.Payload) + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *PrePrepare) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.Seq)
	e.Bytes32(m.Digest)
	e.Node(m.Leader)
	e.VarBytes(m.payloadEnc.Frame(m.Payload))
	e.VarBytes(m.Sig)
}

func decodePrePrepare(d *wire.Decoder) (wire.Message, error) {
	m := &PrePrepare{View: d.U64(), Seq: d.U64(), Digest: d.Bytes32(), Leader: d.Node()}
	raw := d.VarBytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	payload, _, err := wire.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	m.Payload = payload
	// The decoder copied raw out of the input, so the cache can own it:
	// a relayed or re-encoded pre-prepare reuses the received bytes.
	m.payloadEnc.Prime(raw)
	m.Sig = d.VarBytes()
	return m, d.Err()
}

// signDigest returns what the leader signs for a pre-prepare.
func (m *PrePrepare) signDigest() crypto.Hash {
	return voteDigest(kindPrePrepare, m.View, m.Seq, m.Digest)
}

// Equivocate implements the fault injector's Equivocator interface: it
// returns a conflicting pre-prepare for the same (view, seq) — a distinct
// digest derived from the original, correctly signed by signer, carrying
// the same payload. Victims accept it as authentic, but its digest can
// never validate against the application, and the two signed digests
// together are self-authenticating equivocation evidence.
func (m *PrePrepare) Equivocate(signer crypto.Signer) wire.Message {
	fork := &PrePrepare{
		View:    m.View,
		Seq:     m.Seq,
		Digest:  crypto.HashBytes(m.Digest[:]),
		Payload: m.Payload,
		Leader:  m.Leader,
	}
	fork.Sig = signer.Sign(fork.signDigest())
	return fork
}

// Prepare is a phase-2 vote.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Hash
	Replica wire.NodeID
	Sig     []byte
}

var _ wire.Message = (*Prepare)(nil)

// Type implements wire.Message.
func (m *Prepare) Type() wire.Type { return TypePrepare }

// WireSize implements wire.Message.
func (m *Prepare) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 32 + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *Prepare) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.Seq)
	e.Bytes32(m.Digest)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodePrepare(d *wire.Decoder) (wire.Message, error) {
	m := &Prepare{View: d.U64(), Seq: d.U64(), Digest: d.Bytes32(), Replica: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

func (m *Prepare) signDigest() crypto.Hash {
	return voteDigest(kindPrepare, m.View, m.Seq, m.Digest)
}

// Commit is a phase-3 vote.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Hash
	Replica wire.NodeID
	Sig     []byte
}

var _ wire.Message = (*Commit)(nil)

// Type implements wire.Message.
func (m *Commit) Type() wire.Type { return TypeCommit }

// WireSize implements wire.Message.
func (m *Commit) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 32 + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *Commit) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.Seq)
	e.Bytes32(m.Digest)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeCommit(d *wire.Decoder) (wire.Message, error) {
	m := &Commit{View: d.U64(), Seq: d.U64(), Digest: d.Bytes32(), Replica: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

func (m *Commit) signDigest() crypto.Hash {
	return voteDigest(kindCommit, m.View, m.Seq, m.Digest)
}

// PreparedEntry reports an instance the sender prepared but has not
// executed, so the new leader can re-propose it. Unlike full PBFT we carry
// the payload itself instead of a 2f+1-signature proof; view changes are
// rare in the evaluation and the simplification does not change the
// protocol's quorum logic (see DESIGN.md).
type PreparedEntry struct {
	Seq     uint64
	View    uint64
	Digest  crypto.Hash
	Payload wire.Message

	// payloadEnc memoizes the marshaled Payload, shared across the
	// view-change broadcast fan-out.
	payloadEnc wire.EncCache
}

func (p *PreparedEntry) encodedSize() int {
	return 8 + 8 + 32 + 4 + p.payloadEnc.FrameSize(p.Payload)
}

func (p *PreparedEntry) encodeTo(e *wire.Encoder) {
	e.U64(p.Seq)
	e.U64(p.View)
	e.Bytes32(p.Digest)
	e.VarBytes(p.payloadEnc.Frame(p.Payload))
}

func decodePreparedEntry(d *wire.Decoder) (*PreparedEntry, error) {
	p := &PreparedEntry{Seq: d.U64(), View: d.U64(), Digest: d.Bytes32()}
	raw := d.VarBytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	payload, _, err := wire.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	p.Payload = payload
	p.payloadEnc.Prime(raw)
	return p, nil
}

// ViewChange asks to move to NewViewNum. LastExec lets the new leader pick
// the resume point; Prepared carries instances that must be re-proposed.
type ViewChange struct {
	NewViewNum uint64
	LastExec   uint64
	Prepared   []*PreparedEntry
	Replica    wire.NodeID
	Sig        []byte
}

var _ wire.Message = (*ViewChange)(nil)

// Type implements wire.Message.
func (m *ViewChange) Type() wire.Type { return TypeViewChange }

// WireSize implements wire.Message.
func (m *ViewChange) WireSize() int {
	n := wire.FrameOverhead + 8 + 8 + 4 + 4 + wire.SizeVarBytes(m.Sig)
	for _, p := range m.Prepared {
		n += p.encodedSize()
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *ViewChange) EncodeBody(e *wire.Encoder) {
	e.U64(m.NewViewNum)
	e.U64(m.LastExec)
	e.U32(uint32(len(m.Prepared)))
	for _, p := range m.Prepared {
		p.encodeTo(e)
	}
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeViewChange(d *wire.Decoder) (wire.Message, error) {
	m := &ViewChange{NewViewNum: d.U64(), LastExec: d.U64()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining() {
		return nil, wire.ErrTruncated
	}
	for i := 0; i < n; i++ {
		p, err := decodePreparedEntry(d)
		if err != nil {
			return nil, err
		}
		m.Prepared = append(m.Prepared, p)
	}
	m.Replica = d.Node()
	m.Sig = d.VarBytes()
	return m, d.Err()
}

func (m *ViewChange) signDigest() crypto.Hash {
	// Bind the variable parts: view, lastExec, and the prepared digests.
	e := wire.NewEncoder(32 + 16 + len(m.Prepared)*48)
	e.U64(m.NewViewNum)
	e.U64(m.LastExec)
	for _, p := range m.Prepared {
		e.U64(p.Seq)
		e.U64(p.View)
		e.Bytes32(p.Digest)
	}
	return voteDigest(kindViewChange, m.NewViewNum, m.LastExec, crypto.HashBytes(e.Bytes()))
}

// NewView announces a view change's outcome. Re-proposals arrive as fresh
// PrePrepares in the new view immediately after.
type NewView struct {
	View     uint64
	LastExec uint64
	Leader   wire.NodeID
	Sig      []byte
}

var _ wire.Message = (*NewView)(nil)

// Type implements wire.Message.
func (m *NewView) Type() wire.Type { return TypeNewView }

// WireSize implements wire.Message.
func (m *NewView) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *NewView) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.LastExec)
	e.Node(m.Leader)
	e.VarBytes(m.Sig)
}

func decodeNewView(d *wire.Decoder) (wire.Message, error) {
	m := &NewView{View: d.U64(), LastExec: d.U64(), Leader: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

func (m *NewView) signDigest() crypto.Hash {
	return voteDigest(kindNewView, m.View, m.LastExec, crypto.ZeroHash)
}

// StatusRequest asks peers for their view/execution status. A restarted
// replica broadcasts it to resynchronize its view: while it was down the
// cluster may have completed view changes it never saw, and onPrePrepare
// rejects proposals from any view but its own.
type StatusRequest struct {
	Replica wire.NodeID
}

var _ wire.Message = (*StatusRequest)(nil)

// Type implements wire.Message.
func (m *StatusRequest) Type() wire.Type { return TypeStatusRequest }

// WireSize implements wire.Message.
func (m *StatusRequest) WireSize() int { return wire.FrameOverhead + 4 }

// EncodeBody implements wire.Message.
func (m *StatusRequest) EncodeBody(e *wire.Encoder) { e.Node(m.Replica) }

func decodeStatusRequest(d *wire.Decoder) (wire.Message, error) {
	m := &StatusRequest{Replica: d.Node()}
	return m, d.Err()
}

// StatusReply reports the sender's current view and last executed
// sequence number, signed so a restarted replica can safely adopt the
// (f+1)-th largest reported view (at least one honest replica is there).
type StatusReply struct {
	View     uint64
	LastExec uint64
	Replica  wire.NodeID
	Sig      []byte
}

var _ wire.Message = (*StatusReply)(nil)

// Type implements wire.Message.
func (m *StatusReply) Type() wire.Type { return TypeStatusReply }

// WireSize implements wire.Message.
func (m *StatusReply) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *StatusReply) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.LastExec)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeStatusReply(d *wire.Decoder) (wire.Message, error) {
	m := &StatusReply{View: d.U64(), LastExec: d.U64(), Replica: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

func (m *StatusReply) signDigest() crypto.Hash {
	return voteDigest(kindStatus, m.View, m.LastExec, crypto.ZeroHash)
}

// ProposalProof relays one leader-signed proposal half so peers holding a
// conflicting half can assemble Evidence. A replica broadcasts it when
// verified peer votes name a different digest than the leader-signed
// proposal it holds for a slot: one vote is suspicion, not proof, so the
// replica publishes its half instead of accusing. The proof carries no
// reporter signature — its only load-bearing content is the leader's own
// signature, which every receiver re-verifies.
type ProposalProof struct {
	View   uint64
	Seq    uint64
	Digest crypto.Hash
	Leader wire.NodeID
	Sig    []byte // the leader's pre-prepare signature over (View, Seq, Digest)
}

var _ wire.Message = (*ProposalProof)(nil)

// Type implements wire.Message.
func (m *ProposalProof) Type() wire.Type { return TypeProposalProof }

// WireSize implements wire.Message.
func (m *ProposalProof) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 32 + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *ProposalProof) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.Seq)
	e.Bytes32(m.Digest)
	e.Node(m.Leader)
	e.VarBytes(m.Sig)
}

func decodeProposalProof(d *wire.Decoder) (wire.Message, error) {
	m := &ProposalProof{View: d.U64(), Seq: d.U64(), Digest: d.Bytes32(), Leader: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

// Evidence proves leader equivocation: two distinct digests for the same
// (view, seq), both carrying the leader's valid pre-prepare signature. It
// is self-authenticating — receivers verify both signatures against the
// view's leader — so any replica may originate it, and every honest
// replica that verifies it counts the equivocation and votes the faulty
// leader out.
type Evidence struct {
	View    uint64
	Seq     uint64
	Leader  wire.NodeID
	DigestA crypto.Hash
	SigA    []byte
	DigestB crypto.Hash
	SigB    []byte
}

var _ wire.Message = (*Evidence)(nil)

// Type implements wire.Message.
func (m *Evidence) Type() wire.Type { return TypeEvidence }

// WireSize implements wire.Message.
func (m *Evidence) WireSize() int {
	return wire.FrameOverhead + 8 + 8 + 4 + 32 + wire.SizeVarBytes(m.SigA) + 32 + wire.SizeVarBytes(m.SigB)
}

// EncodeBody implements wire.Message.
func (m *Evidence) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.U64(m.Seq)
	e.Node(m.Leader)
	e.Bytes32(m.DigestA)
	e.VarBytes(m.SigA)
	e.Bytes32(m.DigestB)
	e.VarBytes(m.SigB)
}

func decodeEvidence(d *wire.Decoder) (wire.Message, error) {
	m := &Evidence{
		View: d.U64(), Seq: d.U64(), Leader: d.Node(),
		DigestA: d.Bytes32(), SigA: d.VarBytes(),
		DigestB: d.Bytes32(), SigB: d.VarBytes(),
	}
	return m, d.Err()
}

var registerOnce sync.Once

// RegisterMessages registers PBFT message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypePrePrepare, "pbft.preprepare", decodePrePrepare)
		wire.Register(TypePrepare, "pbft.prepare", decodePrepare)
		wire.Register(TypeCommit, "pbft.commit", decodeCommit)
		wire.Register(TypeViewChange, "pbft.viewchange", decodeViewChange)
		wire.Register(TypeNewView, "pbft.newview", decodeNewView)
		wire.Register(TypeStatusRequest, "pbft.status_req", decodeStatusRequest)
		wire.Register(TypeStatusReply, "pbft.status_reply", decodeStatusReply)
		wire.Register(TypeProposalProof, "pbft.proposal_proof", decodeProposalProof)
		wire.Register(TypeEvidence, "pbft.evidence", decodeEvidence)
	})
}
