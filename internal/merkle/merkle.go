// Package merkle implements a binary Merkle tree with inclusion proofs.
//
// The tree is used in two places in the data flow framework:
//
//   - each bundle header carries the Merkle root of its transaction list so
//     a Predis block commits to transactions without carrying them;
//   - each bundle header carries the Merkle root of its erasure-coded
//     stripes so Multi-Zone relayers can verify a stripe in isolation
//     (§IV-D: "the sender should attach the bundle header and a Merkle
//     proof of the stripe").
//
// Leaves and interior nodes are hashed with distinct domain-separation
// prefixes to rule out second-preimage attacks that reinterpret an interior
// node as a leaf. Odd nodes are promoted to the next level unchanged (no
// duplication), so the tree of n leaves has the canonical shape for any n.
//
// A Tree keeps every level in one slab of digests, leaf level first: the n
// leaf digests fill [0, n), the ⌈n/2⌉ digests of level 1 follow them, and
// so on up to the root, which is the slab's last element. Level offsets
// follow from n alone, so building a tree costs one slab and a proof is a
// walk over it. Root and RootOfHashes never build a tree: they fold a
// level in place in a stack buffer of up to 64 digests and touch the heap
// only for wider inputs.
package merkle

import (
	"errors"
	"math/bits"

	"predis/internal/crypto"
)

var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// ErrIndexOutOfRange is returned by Proof for a leaf index outside the tree.
var ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")

// HashLeaf returns the domain-separated digest of a leaf payload.
func HashLeaf(data []byte) crypto.Hash {
	return crypto.HashConcat(leafPrefix, data)
}

// hashNode combines two child digests.
func hashNode(l, r crypto.Hash) crypto.Hash {
	return crypto.HashConcat(nodePrefix, l[:], r[:])
}

// stackLeaves is the widest leaf level Root and RootOfHashes fold in a
// stack buffer; 64 covers a 50-tx bundle and a stream block's bundle list.
const stackLeaves = 64

// Root computes the Merkle root of the given leaf payloads without
// materializing the whole tree. The root of zero leaves is the zero hash.
//
//predis:hotpath
func Root(leaves [][]byte) crypto.Hash {
	if len(leaves) == 0 {
		return crypto.ZeroHash
	}
	var buf [stackLeaves]crypto.Hash
	level := scratch(&buf, len(leaves))
	for i, l := range leaves {
		level[i] = HashLeaf(l)
	}
	return rootOfLevel(level)
}

// RootOfHashes computes the Merkle root over pre-hashed leaves. The caller
// must have produced the digests with HashLeaf; leaves is not modified.
//
//predis:hotpath
func RootOfHashes(leaves []crypto.Hash) crypto.Hash {
	if len(leaves) == 0 {
		return crypto.ZeroHash
	}
	var buf [stackLeaves]crypto.Hash
	level := scratch(&buf, len(leaves))
	copy(level, leaves)
	return rootOfLevel(level)
}

// scratch returns n digests of room: buf's when they fit, else the heap's.
func scratch(buf *[stackLeaves]crypto.Hash, n int) []crypto.Hash {
	if n > len(buf) {
		return make([]crypto.Hash, n) //predis:allocok wider than the stack buffer
	}
	return buf[:n]
}

// rootOfLevel folds a non-empty leaf level in place and returns the root.
func rootOfLevel(level []crypto.Hash) crypto.Hash {
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				level[i/2] = hashNode(level[i], level[i+1])
			} else {
				level[i/2] = level[i] // promote odd node
			}
		}
	}
	return level[0]
}

// Tree is a fully materialized Merkle tree supporting proof generation.
// Its levels share one slab (see the package comment).
type Tree struct {
	nodes []crypto.Hash // level 0 at [0, n), each parent level after its children; root last
	n     int
}

// slabLen returns how many digests a tree of n leaves holds over all its
// levels.
func slabLen(n int) int {
	total := n
	for ; n > 1; n = (n + 1) / 2 {
		total += (n + 1) / 2
	}
	return total
}

// NewTree builds a tree over the leaf payloads, hashing them straight into
// the slab.
func NewTree(leaves [][]byte) *Tree {
	t := &Tree{nodes: make([]crypto.Hash, slabLen(len(leaves))), n: len(leaves)}
	for i, l := range leaves {
		t.nodes[i] = HashLeaf(l)
	}
	t.build()
	return t
}

// NewTreeFromHashes builds a tree over pre-hashed leaves (see HashLeaf).
func NewTreeFromHashes(hashes []crypto.Hash) *Tree {
	t := &Tree{nodes: make([]crypto.Hash, slabLen(len(hashes))), n: len(hashes)}
	copy(t.nodes, hashes)
	t.build()
	return t
}

// build hashes every level above the leaves into the slab.
func (t *Tree) build() {
	off := 0
	for n := t.n; n > 1; n = (n + 1) / 2 {
		level, parent := t.nodes[off:off+n], t.nodes[off+n:]
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				parent[i/2] = hashNode(level[i], level[i+1])
			} else {
				parent[i/2] = level[i] // promote odd node
			}
		}
		off += n
	}
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

// Root returns the tree's root, or the zero hash for an empty tree.
func (t *Tree) Root() crypto.Hash {
	if t.n == 0 {
		return crypto.ZeroHash
	}
	return t.nodes[len(t.nodes)-1]
}

// Proof returns the sibling path for leaf i, ordered leaf-to-root. Promoted
// odd nodes contribute no sibling at that level.
func (t *Tree) Proof(i int) ([]crypto.Hash, error) {
	if i < 0 || i >= t.n {
		return nil, ErrIndexOutOfRange
	}
	return t.AppendProof(make([]crypto.Hash, 0, bits.Len(uint(t.n))), i)
}

// AppendProof appends the sibling path for leaf i (as Proof returns it) to
// dst and returns the extended slice; dst is returned unchanged with
// ErrIndexOutOfRange for an index outside the tree.
func (t *Tree) AppendProof(dst []crypto.Hash, i int) ([]crypto.Hash, error) {
	if i < 0 || i >= t.n {
		return dst, ErrIndexOutOfRange
	}
	off, idx := 0, i
	for n := t.n; n > 1; n = (n + 1) / 2 {
		if sib := idx ^ 1; sib < n {
			dst = append(dst, t.nodes[off+sib])
		}
		off += n
		idx >>= 1
	}
	return dst, nil
}

// ProofSize returns the wire size in bytes of a proof for a tree of n
// leaves at leaf index i (each element is one digest).
func ProofSize(n, i int) int {
	count := 0
	idx := i
	for n > 1 {
		if idx^1 < n {
			count++
		}
		idx >>= 1
		n = (n + 1) / 2
	}
	return count * crypto.HashSize
}

// Verify checks that leaf payload data sits at index i of a tree with the
// given total leaf count and root.
func Verify(root crypto.Hash, data []byte, i, total int, proof []crypto.Hash) bool {
	return VerifyHash(root, HashLeaf(data), i, total, proof)
}

// VerifyHash checks a proof against a pre-hashed leaf.
func VerifyHash(root crypto.Hash, leaf crypto.Hash, i, total int, proof []crypto.Hash) bool {
	if i < 0 || i >= total || total <= 0 {
		return false
	}
	h := leaf
	idx, n, p := i, total, 0
	for n > 1 {
		if idx^1 < n { // sibling exists at this level
			if p >= len(proof) {
				return false
			}
			if idx&1 == 0 {
				h = hashNode(h, proof[p])
			} else {
				h = hashNode(proof[p], h)
			}
			p++
		}
		idx >>= 1
		n = (n + 1) / 2
	}
	return p == len(proof) && h == root
}
