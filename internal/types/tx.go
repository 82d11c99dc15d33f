// Package types holds the data types shared by every layer of the stack:
// transactions, transaction batches, and the client-facing submit/reply
// messages. Protocol-specific structures (bundles, Predis blocks, consensus
// votes) live with their protocols.
package types

import (
	"encoding/binary"
	"fmt"
	"time"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// DefaultTxSize is the paper's transaction size (§V: "every transaction has
// 512 bytes").
const DefaultTxSize = 512

// txFixedLen is the number of bytes of real fields in an encoded
// transaction (header plus the op kind byte); the remainder up to Size —
// after the op payload — is deterministic zero padding standing in for
// the client's payload and signature.
const txFixedLen = 4 + 8 + 4 + 8 + 1

// MinTxSize is the smallest representable transaction.
const MinTxSize = txFixedLen

// Transaction is a client request. The payload is synthetic: benchmarks
// need transactions of a given wire size, not meaningful bodies, so the
// encoded form carries (Client, Seq, Size, Submitted), an optional
// semantic operation, and deterministic padding up to Size. Its identity
// is the hash of the real fields, op included.
type Transaction struct {
	// Client identifies the submitting client (a node ID in the runtime).
	Client wire.NodeID
	// Seq is the client-local sequence number; (Client, Seq) is unique.
	Seq uint64
	// Size is the full encoded size of the transaction in bytes.
	Size uint32
	// Submitted is the submission time as nanoseconds since the simulation
	// epoch; carried on the wire so any replica can compute end-to-end
	// latency for measurement.
	Submitted int64
	// Op is the semantic operation the execution plane applies at commit;
	// the zero value (OpOpaque) keeps the transaction a pure payload.
	Op Op

	hash    crypto.Hash
	hashSet bool
}

// NewTransaction builds a transaction with the given identity and size.
// Sizes below MinTxSize are raised to it.
func NewTransaction(client wire.NodeID, seq uint64, size uint32, submitted time.Duration) *Transaction {
	if size < MinTxSize {
		size = MinTxSize
	}
	return &Transaction{Client: client, Seq: seq, Size: size, Submitted: int64(submitted)}
}

// Hash returns the transaction identity, computed lazily and cached. It
// covers the real fields only (padding is deterministic) and includes the
// op: two transactions differing only in their semantic effect must not
// collide.
func (t *Transaction) Hash() crypto.Hash {
	if !t.hashSet {
		var arr [txFixedLen + maxOpPayload]byte
		b := arr[:0]
		b = binary.BigEndian.AppendUint32(b, uint32(t.Client))
		b = binary.BigEndian.AppendUint64(b, t.Seq)
		b = binary.BigEndian.AppendUint32(b, t.Size)
		b = binary.BigEndian.AppendUint64(b, uint64(t.Submitted))
		b = append(b, byte(t.Op.Kind))
		b = t.Op.appendPayload(b)
		t.hash = crypto.HashBytes(b)
		t.hashSet = true
	}
	return t.hash
}

// WithOp attaches a semantic operation, growing Size when the op payload
// does not fit the declared wire size. Call it before the first Hash():
// the op is part of the transaction's identity.
func (t *Transaction) WithOp(op Op) *Transaction {
	t.Op = op
	if min := txFixedLen + op.payloadLen(); int(t.Size) < min {
		t.Size = uint32(min)
	}
	return t
}

// EncodedSize returns the wire size of the transaction body (no frame).
func (t *Transaction) EncodedSize() int { return int(t.Size) }

// zeroPad is a shared read-only buffer for transaction padding, so
// EncodeTo never allocates a throwaway zero slice per transaction (the
// encode path runs once per tx per hop — it is the hottest serializer
// in the system).
var zeroPad = make([]byte, 4096)

// EncodeTo appends the transaction to an encoder.
//
//predis:hotpath
func (t *Transaction) EncodeTo(e *wire.Encoder) {
	e.Node(t.Client)
	e.U64(t.Seq)
	e.U32(t.Size)
	e.U64(uint64(t.Submitted))
	e.U8(uint8(t.Op.Kind))
	var arr [maxOpPayload]byte
	e.Raw(t.Op.appendPayload(arr[:0]))
	pad := int(t.Size) - txFixedLen - t.Op.payloadLen()
	for pad > 0 {
		n := pad
		if n > len(zeroPad) {
			n = len(zeroPad)
		}
		e.Raw(zeroPad[:n])
		pad -= n
	}
}

// DecodeTx reads one transaction from a decoder.
func DecodeTx(d *wire.Decoder) (*Transaction, error) {
	t := &Transaction{
		Client:    d.Node(),
		Seq:       d.U64(),
		Size:      d.U32(),
		Submitted: int64(d.U64()),
	}
	kind := OpKind(d.U8())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if kind >= opKindEnd {
		return nil, fmt.Errorf("types: unknown op kind %d", kind)
	}
	op, err := decodeOpPayload(kind, d)
	if err != nil {
		return nil, err
	}
	t.Op = op
	if t.Size < MinTxSize {
		return nil, fmt.Errorf("types: transaction size %d below minimum %d", t.Size, MinTxSize)
	}
	pad := int(t.Size) - txFixedLen - op.payloadLen()
	if pad < 0 {
		return nil, fmt.Errorf("types: op payload overflows declared size %d", t.Size)
	}
	d.Pad(pad)
	return t, d.Err()
}

// EncodeTxs appends a length-prefixed transaction list.
func EncodeTxs(e *wire.Encoder, txs []*Transaction) {
	e.U32(uint32(len(txs)))
	for _, t := range txs {
		t.EncodeTo(e)
	}
}

// DecodeTxs reads a length-prefixed transaction list.
func DecodeTxs(d *wire.Decoder) ([]*Transaction, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/MinTxSize {
		return nil, fmt.Errorf("types: tx count %d exceeds buffer", n)
	}
	out := make([]*Transaction, 0, n)
	for i := 0; i < n; i++ {
		t, err := DecodeTx(d)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// SizeTxs returns the encoded size of a transaction list.
func SizeTxs(txs []*Transaction) int {
	n := 4
	for _, t := range txs {
		n += t.EncodedSize()
	}
	return n
}

// TxHashes returns the identity hashes of a transaction list.
func TxHashes(txs []*Transaction) []crypto.Hash {
	out := make([]crypto.Hash, len(txs))
	for i, t := range txs {
		out[i] = t.Hash()
	}
	return out
}

// TotalBytes sums the encoded sizes of a transaction list.
func TotalBytes(txs []*Transaction) int {
	n := 0
	for _, t := range txs {
		n += t.EncodedSize()
	}
	return n
}
