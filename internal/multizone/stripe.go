// Package multizone implements the paper's data distribution layer (§IV):
// the network is divided into zones, each zone keeps n_c relayers alive,
// consensus nodes erasure-code every bundle into n_c stripes and send only
// their own stripe to subscribers, relayers exchange stripes so each one
// receives the full set while consensus bandwidth stays constant, and
// ordinary nodes subscribe to relayers. Predis blocks (tiny) follow the
// same subscription tree, so a full node can rebuild every block from its
// local bundle store the moment the block header arrives.
package multizone

import (
	"errors"
	"fmt"
	"math/bits"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/erasure"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

// Striper turns bundles into verifiable stripes and back. A bundle body is
// erasure-coded into data = n_c−f and parity = f shards (any n_c−f of the
// n_c reconstruct), and the bundle header's StripeRoot commits to all
// shards so each stripe is independently verifiable with a Merkle proof
// (§IV-D). A Striper is immutable and safe for concurrent use.
type Striper struct {
	coder *erasure.Coder
	nc, f int
}

// NewStriper builds a striper for n_c consensus nodes tolerating f faults.
func NewStriper(nc, f int) (*Striper, error) {
	if nc <= 0 || f < 0 || nc-f <= 0 {
		return nil, fmt.Errorf("multizone: bad striper params nc=%d f=%d", nc, f)
	}
	coder, err := erasure.New(nc-f, f)
	if err != nil {
		return nil, err
	}
	return &Striper{coder: coder, nc: nc, f: f}, nil
}

// NC returns the stripe count (one per consensus node).
func (s *Striper) NC() int { return s.nc }

// MinStripes returns how many stripes reconstruct a bundle (n_c − f).
func (s *Striper) MinStripes() int { return s.nc - s.f }

// encodeBody serializes a bundle body exactly as the wire codec does, so
// reassembled bundles decode with the standard path.
func encodeBody(txs []*types.Transaction) []byte {
	e := wire.NewEncoder(types.SizeTxs(txs))
	types.EncodeTxs(e, txs)
	return e.Bytes()
}

// StripeSet is the encoded form of one bundle: the shards plus every
// stripe's Merkle proof against Root.
type StripeSet struct {
	Shards     [][]byte
	PayloadLen int
	Root       crypto.Hash
	// proofs holds stripe i's sibling path at [i*proofStride, +its length),
	// laid out once at Encode so Stripe never walks the tree.
	proofs      []crypto.Hash
	proofStride int
}

// Encode erasure-codes a bundle body into n_c shards, builds the stripe
// Merkle tree and lays out every stripe's proof. Call it before signing
// the header so StripeRoot can be embedded (the distributor's StripeRoot
// hook does this).
func (s *Striper) Encode(txs []*types.Transaction) (*StripeSet, error) {
	body := encodeBody(txs)
	shards := s.coder.Split(body)
	if err := s.coder.Encode(shards); err != nil {
		return nil, err
	}
	tree := merkle.NewTree(shards)
	stride := bits.Len(uint(len(shards) - 1)) // the tree's depth: no proof is longer
	proofs := make([]crypto.Hash, len(shards)*stride)
	for i := range shards {
		lo := i * stride
		_, _ = tree.AppendProof(proofs[lo:lo:lo+stride], i) // i is in range: no error
	}
	return &StripeSet{
		Shards:      shards,
		PayloadLen:  len(body),
		Root:        tree.Root(),
		proofs:      proofs,
		proofStride: stride,
	}, nil
}

// Stripe extracts stripe i as a wire message for the given bundle header.
// The message shares the set's shard and proof memory; receivers treat
// both as read-only.
func (set *StripeSet) Stripe(header core.BundleHeader, i int) (*StripeMsg, error) {
	if i < 0 || i >= len(set.Shards) {
		return nil, fmt.Errorf("multizone: stripe index %d out of range", i)
	}
	return &StripeMsg{
		Header:     header,
		Index:      uint8(i),
		PayloadLen: uint32(set.PayloadLen),
		Shard:      set.Shards[i],
		Proof:      set.proof(i),
	}, nil
}

// proof returns stripe i's slice of the proof slab, capped so an append
// cannot reach stripe i+1's path.
//
//predis:hotpath
func (set *StripeSet) proof(i int) []crypto.Hash {
	lo := i * set.proofStride
	hi := lo + merkle.ProofSize(len(set.Shards), i)/crypto.HashSize
	return set.proofs[lo:hi:hi]
}

// Errors from stripe verification and reassembly.
var (
	ErrStripeProof  = errors.New("multizone: stripe Merkle proof invalid")
	ErrStripeCount  = errors.New("multizone: not enough stripes to reassemble")
	ErrStripeBundle = errors.New("multizone: reassembled bundle does not match header")
)

// VerifyStripe checks a stripe against its header's StripeRoot. Success
// is memoized on the message: the simulator delivers one *StripeMsg to
// every recipient, so the Merkle proof is checked once per stripe rather
// than once per full node.
func (s *Striper) VerifyStripe(m *StripeMsg) error {
	if m.verified {
		return nil
	}
	if int(m.Index) >= s.nc {
		return fmt.Errorf("%w: index %d of %d", ErrStripeProof, m.Index, s.nc)
	}
	if !merkle.Verify(m.Header.StripeRoot, m.Shard, int(m.Index), s.nc, m.Proof) {
		return ErrStripeProof
	}
	m.verified = true
	return nil
}

// Reassemble reconstructs a bundle from any n_c−f verified stripes of the
// same header. stripes is indexed by stripe index; nil entries are
// missing.
func (s *Striper) Reassemble(header core.BundleHeader, stripes []*StripeMsg) (*core.Bundle, error) {
	have := 0
	payloadLen := -1
	for _, st := range stripes {
		if st == nil {
			continue
		}
		have++
		if payloadLen < 0 {
			payloadLen = int(st.PayloadLen)
		}
	}
	if have < s.MinStripes() || payloadLen < 0 {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrStripeCount, have, s.MinStripes())
	}
	if b := assembledMemo(header, stripes); b != nil {
		return b, nil
	}
	shards := make([][]byte, s.nc)
	for i, st := range stripes {
		if st != nil {
			shards[i] = st.Shard
		}
	}
	// Only the data shards are needed to Join the body back together;
	// skipping the parity recompute saves f full matrix rows of GF math
	// per reassembled bundle.
	if err := s.coder.ReconstructData(shards); err != nil {
		return nil, err
	}
	body, err := s.coder.Join(shards, payloadLen)
	if err != nil {
		return nil, err
	}
	txs, err := types.DecodeTxs(wire.NewDecoder(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStripeBundle, err)
	}
	b := &core.Bundle{Header: header, Txs: txs}
	if err := b.VerifyBody(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStripeBundle, err)
	}
	for _, st := range stripes {
		if st != nil {
			st.assembled = b
		}
	}
	return b, nil
}

// assembledMemo returns the bundle another node already reconstructed
// from a stripe set containing one of these stripes, or nil. With enough
// stripes in hand that bundle is exactly what decoding would produce:
// every valid n_c−f subset yields the same body (Reed–Solomon), and the
// memo was checked against the header's commitments before caching.
//
//predis:hotpath
func assembledMemo(header core.BundleHeader, stripes []*StripeMsg) *core.Bundle {
	headerHash := header.Hash()
	for _, st := range stripes {
		if st != nil && st.assembled != nil && st.assembled.Header.Hash() == headerHash {
			return st.assembled
		}
	}
	return nil
}
