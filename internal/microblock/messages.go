// Package microblock implements the two shared-mempool baselines the paper
// compares against in Fig. 5:
//
//   - Narwhal-style reliable broadcast (RBC): a producer may only emit its
//     next microblock after collecting n_c−f acknowledgement signatures
//     (a certificate) for the current one, piggybacking the certificate on
//     the next microblock. Production is therefore chained and paced by a
//     round trip, which is where Narwhal's extra latency comes from.
//
//   - Stratus-style provably available broadcast (PAB): a producer
//     collects only f+1 acks (enough to guarantee one honest holder) and
//     does not chain production.
//
// In both schemes the consensus leader proposes a list of certified
// microblock identifiers (default cap 1000, the systems' default), so
// proposal size grows linearly with the transaction volume — the contrast
// to Predis's constant-size blocks.
package microblock

import (
	"sync"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

// Message type tags (shared by both schemes).
const (
	TypeMicroblock = wire.TypeRangeNarwhal + 1
	TypeAck        = wire.TypeRangeNarwhal + 2
	TypeCertMsg    = wire.TypeRangeNarwhal + 3
	TypeIDList     = wire.TypeRangeNarwhal + 4
	TypeMBRequest  = wire.TypeRangeNarwhal + 5
	TypeMBResponse = wire.TypeRangeNarwhal + 6
)

// ackDigest is what replicas sign to acknowledge a microblock.
func ackDigest(mb crypto.Hash) crypto.Hash {
	return crypto.HashConcat([]byte("mb-ack"), mb[:])
}

// Cert is a quorum of acknowledgement signatures over a microblock digest.
type Cert struct {
	Digest  crypto.Hash
	Signers []wire.NodeID
	Sigs    [][]byte
}

// EncodedSize returns the certificate's wire size.
func (c *Cert) EncodedSize() int {
	n := 32 + 4
	for _, s := range c.Sigs {
		n += 4 + wire.SizeVarBytes(s)
	}
	return n
}

// EncodeTo appends the certificate.
func (c *Cert) EncodeTo(e *wire.Encoder) {
	e.Bytes32(c.Digest)
	e.U32(uint32(len(c.Signers)))
	for i, id := range c.Signers {
		e.Node(id)
		e.VarBytes(c.Sigs[i])
	}
}

// DecodeCert reads a certificate.
func DecodeCert(d *wire.Decoder) (*Cert, error) {
	c := &Cert{Digest: d.Bytes32()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/8 {
		return nil, wire.ErrTruncated
	}
	c.Signers = make([]wire.NodeID, n)
	c.Sigs = make([][]byte, n)
	for i := 0; i < n; i++ {
		c.Signers[i] = d.Node()
		c.Sigs[i] = d.VarBytes()
	}
	return c, d.Err()
}

// Verify checks the certificate holds at least `threshold` distinct valid
// signatures.
func (c *Cert) Verify(signer crypto.Signer, n, threshold int) bool {
	if len(c.Signers) < threshold || len(c.Signers) != len(c.Sigs) {
		return false
	}
	digest := ackDigest(c.Digest)
	seen := make(map[wire.NodeID]struct{}, len(c.Signers))
	for i, id := range c.Signers {
		if int(id) >= n {
			return false
		}
		if _, dup := seen[id]; dup {
			return false
		}
		seen[id] = struct{}{}
		if !signer.Verify(int(id), digest, c.Sigs[i]) {
			return false
		}
	}
	return true
}

// Microblock is a producer's batch of transactions. PrevCert certifies the
// producer's previous microblock (nil for the first, or always nil under
// PAB).
type Microblock struct {
	Producer wire.NodeID
	Seq      uint64
	PrevCert *Cert
	Txs      []*types.Transaction
	Sig      []byte

	digest    crypto.Hash
	digestSet bool
}

// Digest returns the microblock identity (excluding PrevCert and Sig, so
// acks do not depend on the piggybacked certificate). The digest is
// memoized: the simulator delivers the same pointer to every recipient,
// and all identity fields are immutable once the microblock is sent, so
// re-hashing per recipient (and per retry) would only rebuild the same
// value.
func (m *Microblock) Digest() crypto.Hash {
	if m.digestSet {
		return m.digest
	}
	e := wire.NewEncoder(12 + 32*len(m.Txs))
	e.Node(m.Producer)
	e.U64(m.Seq)
	for _, t := range m.Txs {
		h := t.Hash()
		e.Bytes32(h)
	}
	m.digest = crypto.HashBytes(e.Bytes())
	m.digestSet = true
	return m.digest
}

var _ wire.Message = (*Microblock)(nil)

// Type implements wire.Message.
func (m *Microblock) Type() wire.Type { return TypeMicroblock }

// WireSize implements wire.Message.
func (m *Microblock) WireSize() int {
	n := wire.FrameOverhead + 4 + 8 + 1 + types.SizeTxs(m.Txs) + wire.SizeVarBytes(m.Sig)
	if m.PrevCert != nil {
		n += m.PrevCert.EncodedSize()
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *Microblock) EncodeBody(e *wire.Encoder) {
	e.Node(m.Producer)
	e.U64(m.Seq)
	e.Bool(m.PrevCert != nil)
	if m.PrevCert != nil {
		m.PrevCert.EncodeTo(e)
	}
	types.EncodeTxs(e, m.Txs)
	e.VarBytes(m.Sig)
}

func decodeMicroblock(d *wire.Decoder) (wire.Message, error) {
	m := &Microblock{Producer: d.Node(), Seq: d.U64()}
	if d.Bool() {
		cert, err := DecodeCert(d)
		if err != nil {
			return nil, err
		}
		m.PrevCert = cert
	}
	txs, err := types.DecodeTxs(d)
	if err != nil {
		return nil, err
	}
	m.Txs = txs
	m.Sig = d.VarBytes()
	return m, d.Err()
}

// Ack acknowledges receipt of a microblock.
type Ack struct {
	Digest  crypto.Hash
	Replica wire.NodeID
	Sig     []byte
}

var _ wire.Message = (*Ack)(nil)

// Type implements wire.Message.
func (m *Ack) Type() wire.Type { return TypeAck }

// WireSize implements wire.Message.
func (m *Ack) WireSize() int { return wire.FrameOverhead + 32 + 4 + wire.SizeVarBytes(m.Sig) }

// EncodeBody implements wire.Message.
func (m *Ack) EncodeBody(e *wire.Encoder) {
	e.Bytes32(m.Digest)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeAck(d *wire.Decoder) (wire.Message, error) {
	m := &Ack{Digest: d.Bytes32(), Replica: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

// CertMsg broadcasts a standalone certificate (used for the tail
// microblock that has no successor to piggyback on).
type CertMsg struct {
	Cert *Cert
}

var _ wire.Message = (*CertMsg)(nil)

// Type implements wire.Message.
func (m *CertMsg) Type() wire.Type { return TypeCertMsg }

// WireSize implements wire.Message.
func (m *CertMsg) WireSize() int { return wire.FrameOverhead + m.Cert.EncodedSize() }

// EncodeBody implements wire.Message.
func (m *CertMsg) EncodeBody(e *wire.Encoder) { m.Cert.EncodeTo(e) }

func decodeCertMsg(d *wire.Decoder) (wire.Message, error) {
	c, err := DecodeCert(d)
	if err != nil {
		return nil, err
	}
	return &CertMsg{Cert: c}, d.Err()
}

// IDList is the consensus payload: certified microblock identifiers. Its
// wire size grows with the number of identifiers — the paper measures
// ~30 KB at the 1000-id default (§V-A).
type IDList struct {
	Height uint64
	IDs    []crypto.Hash

	digest    crypto.Hash
	digestSet bool
}

var _ wire.Message = (*IDList)(nil)

// Type implements wire.Message.
func (m *IDList) Type() wire.Type { return TypeIDList }

// WireSize implements wire.Message.
func (m *IDList) WireSize() int { return wire.FrameOverhead + 8 + 4 + 32*len(m.IDs) }

// EncodeBody implements wire.Message.
func (m *IDList) EncodeBody(e *wire.Encoder) {
	e.U64(m.Height)
	e.U32(uint32(len(m.IDs)))
	for _, id := range m.IDs {
		e.Bytes32(id)
	}
}

func decodeIDList(d *wire.Decoder) (wire.Message, error) {
	m := &IDList{Height: d.U64()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/32 {
		return nil, wire.ErrTruncated
	}
	m.IDs = make([]crypto.Hash, n)
	for i := range m.IDs {
		m.IDs[i] = d.Bytes32()
	}
	return m, d.Err()
}

// Digest returns the payload identity, memoized for the same reason as
// Microblock.Digest: the list is immutable once proposed and every
// replica (per consensus phase) would recompute the identical value.
func (m *IDList) Digest() crypto.Hash {
	if m.digestSet {
		return m.digest
	}
	e := wire.NewEncoder(8 + 32*len(m.IDs))
	e.U64(m.Height)
	for _, id := range m.IDs {
		e.Bytes32(id)
	}
	m.digest = crypto.HashBytes(e.Bytes())
	m.digestSet = true
	return m.digest
}

// MBRequest asks a peer for microblocks by id.
type MBRequest struct {
	IDs []crypto.Hash
}

var _ wire.Message = (*MBRequest)(nil)

// Type implements wire.Message.
func (m *MBRequest) Type() wire.Type { return TypeMBRequest }

// WireSize implements wire.Message.
func (m *MBRequest) WireSize() int { return wire.FrameOverhead + 4 + 32*len(m.IDs) }

// EncodeBody implements wire.Message.
func (m *MBRequest) EncodeBody(e *wire.Encoder) {
	e.U32(uint32(len(m.IDs)))
	for _, id := range m.IDs {
		e.Bytes32(id)
	}
}

func decodeMBRequest(d *wire.Decoder) (wire.Message, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/32 {
		return nil, wire.ErrTruncated
	}
	m := &MBRequest{IDs: make([]crypto.Hash, n)}
	for i := range m.IDs {
		m.IDs[i] = d.Bytes32()
	}
	return m, d.Err()
}

// MBResponse returns fetched microblocks.
type MBResponse struct {
	Microblocks []*Microblock
}

var _ wire.Message = (*MBResponse)(nil)

// Type implements wire.Message.
func (m *MBResponse) Type() wire.Type { return TypeMBResponse }

// WireSize implements wire.Message.
func (m *MBResponse) WireSize() int {
	n := wire.FrameOverhead + 4
	for _, mb := range m.Microblocks {
		n += mb.WireSize() - wire.FrameOverhead
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *MBResponse) EncodeBody(e *wire.Encoder) {
	e.U32(uint32(len(m.Microblocks)))
	for _, mb := range m.Microblocks {
		mb.EncodeBody(e)
	}
}

func decodeMBResponse(d *wire.Decoder) (wire.Message, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining() {
		return nil, wire.ErrTruncated
	}
	m := &MBResponse{}
	for i := 0; i < n; i++ {
		mb, err := decodeMicroblock(d)
		if err != nil {
			return nil, err
		}
		m.Microblocks = append(m.Microblocks, mb.(*Microblock))
	}
	return m, d.Err()
}

var registerOnce sync.Once

// RegisterMessages registers microblock message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeMicroblock, "mb.microblock", decodeMicroblock)
		wire.Register(TypeAck, "mb.ack", decodeAck)
		wire.Register(TypeCertMsg, "mb.cert", decodeCertMsg)
		wire.Register(TypeIDList, "mb.idlist", decodeIDList)
		wire.Register(TypeMBRequest, "mb.request", decodeMBRequest)
		wire.Register(TypeMBResponse, "mb.response", decodeMBResponse)
	})
}
