package core

import (
	"errors"
	"testing"

	"predis/internal/crypto"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

// populate fills every node's mempool: each producer packs `per` bundles of
// one transaction, delivered to everyone. Tip lists therefore advertise
// full receipt.
func populate(r *testRig, per int) {
	for round := 0; round < per; round++ {
		for p := range r.pools {
			b := r.pack(p, 1)
			r.giveAll(b)
		}
	}
	// One extra round of empty bundles so tip lists reflect the last
	// deliveries (the 2·ls effect from §III-F).
	for p := range r.pools {
		b := r.pack(p, 0)
		r.giveAll(b)
	}
}

func TestCutChainsQuorumRule(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	cuts := r.pools[0].CutChains(0, prev)
	// All transaction bundles (heights ≤ 3) are quorum-proven by the tip
	// exchange round, so every chain cuts at least there. The very last
	// empty bundles may not be provable yet — that is the 2·ls effect of
	// §III-F, not a bug.
	for i, c := range cuts {
		if c.Height < 3 {
			t.Fatalf("chain %d cut at %d, want ≥ 3", i, c.Height)
		}
		if c.Head.IsZero() {
			t.Fatalf("chain %d head hash empty", i)
		}
	}
}

func TestCutChainsRespectsLaggards(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producer 0 packs 3 bundles; only nodes 0 and 1 receive them, and no
	// follow-up bundles advertise receipt. The leader must not cut chain 0
	// above what n_c−f = 3 nodes can prove.
	for i := 0; i < 3; i++ {
		b := r.pack(0, 1)
		r.give(0, b)
		r.give(1, b)
	}
	cuts := r.pools[0].CutChains(0, ZeroCuts(4))
	if cuts[0].Height != 0 {
		t.Fatalf("chain 0 cut at %d, want 0 (only 2 receipts claimable)", cuts[0].Height)
	}
}

func TestCutChainsCountsTipListClaims(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producer 0 packs one bundle; nodes 1 and 2 receive it and then pack
	// their own bundles whose tip lists claim receipt. The leader (0)
	// receives those bundles, so the matrix shows 3 holders: cut at 1.
	b0 := r.pack(0, 1)
	r.give(0, b0)
	r.give(1, b0)
	r.give(2, b0)
	for _, p := range []int{1, 2} {
		b := r.pack(p, 1)
		r.giveAll(b)
	}
	cuts := r.pools[0].CutChains(0, ZeroCuts(4))
	if cuts[0].Height != 1 {
		t.Fatalf("chain 0 cut at %d, want 1", cuts[0].Height)
	}
}

func TestCutChainsClampsToSelfHoldings(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producers 1,2,3 each pack 2 bundles; node 0 only has the first of
	// chain 1. Even if the rest of the network has both, node 0 can only
	// cut what it holds.
	var firstOf1 *Bundle
	for _, p := range []int{1, 2, 3} {
		b1 := r.pack(p, 1)
		b2 := r.pack(p, 1)
		for n := 0; n < 4; n++ {
			if n == 0 && p == 1 {
				continue // node 0 deprived of chain 1
			}
			r.give(n, b1)
			r.give(n, b2)
		}
		if p == 1 {
			firstOf1 = b1
		}
	}
	// Fresh bundles from 2 and 3 advertise full receipt of chain 1.
	for _, p := range []int{2, 3} {
		b := r.pack(p, 0)
		r.giveAll(b)
	}
	cuts := r.pools[0].CutChains(0, ZeroCuts(4))
	if cuts[1].Height != 0 {
		t.Fatalf("chain 1 cut %d, want 0 (node 0 holds nothing)", cuts[1].Height)
	}
	// After node 0 receives the first bundle it can cut height 1.
	r.give(0, firstOf1)
	cuts = r.pools[0].CutChains(0, ZeroCuts(4))
	if cuts[1].Height != 1 {
		t.Fatalf("chain 1 cut %d, want 1", cuts[1].Height)
	}
}

func TestCutChainsSkipsBanned(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	r.pools[0].Ban(2, nil)
	cuts := r.pools[0].CutChains(0, ZeroCuts(4))
	if cuts[2].Height != 0 {
		t.Fatalf("banned chain cut at %d, want 0", cuts[2].Height)
	}
	if !cuts[2].Head.IsZero() {
		t.Fatal("banned chain head must be zero")
	}
}

func TestBuildValidateCommitRoundtrip(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0)
	if !ok {
		t.Fatal("BuildPredisBlock returned nothing")
	}
	if blk.Height != 1 || blk.Leader != 0 {
		t.Fatalf("block fields wrong: %+v", blk)
	}
	// Every other node validates and reconstructs the same content.
	var wantTxs int
	for n := 1; n < 4; n++ {
		missing, err := r.pools[n].ValidatePredisBlock(blk, crypto.ZeroHash, prev)
		if err != nil || missing != nil {
			t.Fatalf("node %d validate: %v (missing %v)", n, err, missing)
		}
		bundles := r.pools[n].BlockBundles(blk, prev)
		txs := BlockTxs(bundles)
		if wantTxs == 0 {
			wantTxs = len(txs)
		} else if len(txs) != wantTxs {
			t.Fatalf("node %d reconstructed %d txs, want %d (Theorem 3.3)", n, len(txs), wantTxs)
		}
		r.pools[n].ApplyCommit(blk)
		if r.pools[n].ConfirmedHeight(0) != blk.Cuts[0].Height {
			t.Fatalf("node %d confirmed not advanced", n)
		}
		if r.pools[n].HasUnconfirmedPayload() {
			t.Fatalf("node %d still reports unconfirmed payload after full commit", n)
		}
	}
	if wantTxs != 12 { // 4 chains × 3 bundles × 1 tx
		t.Fatalf("block confirmed %d txs, want 12", wantTxs)
	}
}

func TestValidateRejectsBadBlocks(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	prev := ZeroCuts(4)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0)
	if !ok {
		t.Fatal("no block")
	}

	t.Run("wrong parent", func(t *testing.T) {
		_, err := r.pools[1].ValidatePredisBlock(blk, crypto.HashBytes([]byte("x")), prev)
		if !errors.Is(err, ErrBlockParent) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad signature", func(t *testing.T) {
		bad := *blk
		bad.Sig = append([]byte(nil), blk.Sig...)
		bad.Sig[0] ^= 1
		if _, err := r.pools[1].ValidatePredisBlock(&bad, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockSignature) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("tampered cut resigned by non-leader index", func(t *testing.T) {
		bad := *blk
		bad.Cuts = append([]Cut(nil), blk.Cuts...)
		bad.Cuts[0].Height++ // now head/hash invalid
		if _, err := r.pools[1].ValidatePredisBlock(&bad, crypto.ZeroHash, prev); err == nil {
			t.Fatal("tampered block accepted")
		}
	})
	t.Run("wrong cut count", func(t *testing.T) {
		bad := *blk
		bad.Cuts = blk.Cuts[:2]
		if _, err := r.pools[1].ValidatePredisBlock(&bad, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockShape) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("regressed cut", func(t *testing.T) {
		higher := make([]uint64, 4)
		for i := range higher {
			higher[i] = blk.Cuts[i].Height + 5
		}
		if _, err := r.pools[1].ValidatePredisBlock(blk, crypto.ZeroHash, higher); !errors.Is(err, ErrBlockRegressed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("banned producer", func(t *testing.T) {
		r2 := newRig(t, 4, 1, 50)
		populate(r2, 2)
		blk2, _ := r2.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0)
		r2.pools[1].Ban(2, nil)
		if _, err := r2.pools[1].ValidatePredisBlock(blk2, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockBanned) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestValidateReportsMissingBundles(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	blk, _ := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0)

	// A fresh node with an empty mempool must report every chain missing.
	fresh := newRig(t, 4, 1, 50)
	missing, err := fresh.pools[3].ValidatePredisBlock(blk, crypto.ZeroHash, prev)
	if !errors.Is(err, ErrBlockMissing) {
		t.Fatalf("err = %v, want ErrBlockMissing", err)
	}
	if len(missing) != 4 {
		t.Fatalf("missing %d chains, want 4", len(missing))
	}
	for _, m := range missing {
		if m.From != 1 || m.To != blk.Cuts[m.Producer].Height {
			t.Fatalf("missing range %+v inconsistent with cut", m)
		}
	}
}

func TestValidateHeadMismatchAfterEquivocation(t *testing.T) {
	// Leader cuts its (honest) chain; a validator that somehow stored a
	// different bundle at the cut height must reject by head hash.
	r := newRig(t, 4, 1, 50)
	populate(r, 1)
	prev := ZeroCuts(4)
	blk, _ := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0)

	// Build a divergent rig with the same signers but different transaction
	// content, so bundles (and head hashes) differ while signatures verify.
	r2 := newRig(t, 4, 1, 50)
	r2.seq = 10000
	populate(r2, 1)
	if _, err := r2.pools[1].ValidatePredisBlock(blk, crypto.ZeroHash, prev); err == nil {
		t.Fatal("block from a different universe accepted")
	}
}

func TestPredisBlockCodecAndSize(t *testing.T) {
	RegisterMessages()
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	blk, _ := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, ZeroCuts(4), 0)
	got, err := wire.Roundtrip(blk)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(*PredisBlock)
	if gb.Hash() != blk.Hash() {
		t.Fatal("roundtrip changed block hash")
	}
	if len(wire.Marshal(blk)) != blk.WireSize() {
		t.Fatalf("WireSize %d, marshaled %d", blk.WireSize(), len(wire.Marshal(blk)))
	}
}

// TestPredisBlockConstantSize reproduces the §III-F block-size claim: the
// proposal size depends only on n_c, not on the transaction volume it maps
// to. At n_c = 80 a Predis block stays in the low kilobytes even when it
// confirms 50,000 transactions.
func TestPredisBlockConstantSize(t *testing.T) {
	nc := 80
	suite := crypto.NewSimSuite(nc, 9)
	mp, err := NewMempool(Params{NC: nc, F: 26, BundleSize: 50, Signer: suite.Signer(0)})
	if err != nil {
		t.Fatal(err)
	}
	_ = mp
	cuts := make([]Cut, nc)
	for i := range cuts {
		cuts[i] = Cut{Height: 1000, Head: crypto.HashBytes([]byte{byte(i)})}
	}
	blk := &PredisBlock{Height: 5, Leader: 0, Cuts: cuts, Sig: make([]byte, crypto.SignatureSize)}
	size := blk.WireSize()
	if size > 4096 {
		t.Fatalf("Predis block at n_c=80 is %d bytes; paper claims ~2.5 KB, ours must stay Θ(n_c)", size)
	}
	// Doubling the mapped transaction volume (higher cuts) must not change
	// the size at all.
	for i := range cuts {
		cuts[i].Height *= 2
	}
	blk2 := &PredisBlock{Height: 5, Leader: 0, Cuts: cuts, Sig: make([]byte, crypto.SignatureSize)}
	if blk2.WireSize() != size {
		t.Fatal("block size varied with transaction volume")
	}
}

// TestPredisBlockHashMemoIsCopySafe: a value copy carries the original's
// memo along with its fields, so a copy whose cut was tampered with must
// still hash to its own content — otherwise the tampered block would
// verify against the original signature, and TestValidateRejectsBadBlocks'
// tampered-cut case would pass on the head check alone.
func TestPredisBlockHashMemoIsCopySafe(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0)
	if !ok {
		t.Fatal("no block")
	}
	orig := blk.Hash()
	bad := *blk
	bad.Cuts = append([]Cut(nil), blk.Cuts...)
	bad.Cuts[0].Height++
	if bad.Hash() == orig {
		t.Fatal("tampered value copy inherited the original's memoized hash")
	}
	if r.suite.Signer(1).Verify(int(blk.Leader), bad.Hash(), bad.Sig) {
		t.Fatal("original signature verifies the tampered copy")
	}
	if blk.Hash() != orig {
		t.Fatal("hashing the copy disturbed the original's memo")
	}
	fresh := &PredisBlock{Height: blk.Height, Parent: blk.Parent, Leader: blk.Leader, Cuts: blk.Cuts, TxRoot: blk.TxRoot}
	if fresh.Hash() != orig {
		t.Fatal("memoized hash differs from a fresh computation")
	}
}

// TestPredisBlockHashZeroAlloc: a memo hit allocates nothing.
func TestPredisBlockHashZeroAlloc(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, ZeroCuts(4), 0)
	if !ok {
		t.Fatal("no block")
	}
	blk.Hash()
	if n := testing.AllocsPerRun(100, func() { blk.Hash() }); n != 0 {
		t.Fatalf("PredisBlock.Hash memo hit allocates %.1f objects, want 0", n)
	}
}

// TestTxMerkleRootZeroAlloc: up to 64 transactions the root folds on the
// stack, and on both sides of that width it is the tree root over the
// transaction hashes.
func TestTxMerkleRootZeroAlloc(t *testing.T) {
	for _, n := range []int{1, 50, 64, 65, 130} {
		txs := make([]*types.Transaction, n)
		leaves := make([][]byte, n)
		for i := range txs {
			txs[i] = types.NewTransaction(3, uint64(i), 512, 0)
			h := txs[i].Hash()
			leaves[i] = h[:]
		}
		if TxMerkleRoot(txs) != merkle.NewTree(leaves).Root() {
			t.Fatalf("n=%d: TxMerkleRoot differs from the tree over tx hashes", n)
		}
		if n > 64 {
			continue
		}
		if a := testing.AllocsPerRun(100, func() { TxMerkleRoot(txs) }); a != 0 {
			t.Fatalf("n=%d: TxMerkleRoot %v allocs/op, want 0", n, a)
		}
	}
}
