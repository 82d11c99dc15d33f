package multizone

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

func mkTxs(n int, base uint64) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = types.NewTransaction(7, base+uint64(i), 512, time.Duration(i))
	}
	return out
}

func TestNewStriperValidation(t *testing.T) {
	if _, err := NewStriper(0, 0); err == nil {
		t.Fatal("nc=0 accepted")
	}
	if _, err := NewStriper(4, 4); err == nil {
		t.Fatal("f=nc accepted")
	}
	s, err := NewStriper(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NC() != 8 || s.MinStripes() != 6 {
		t.Fatalf("NC=%d MinStripes=%d", s.NC(), s.MinStripes())
	}
}

func TestStripeRoundtripAllLossPatterns(t *testing.T) {
	s, err := NewStriper(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite := crypto.NewSimSuite(4, 77)
	txs := mkTxs(50, 0)
	set, err := s.Encode(txs)
	if err != nil {
		t.Fatal(err)
	}
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)

	all := make([]*StripeMsg, 4)
	for i := 0; i < 4; i++ {
		m, err := set.Stripe(b.Header, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyStripe(m); err != nil {
			t.Fatalf("stripe %d failed verification: %v", i, err)
		}
		all[i] = m
	}
	// Every single-loss pattern reconstructs (n_c−f = 3 of 4).
	for drop := 0; drop < 4; drop++ {
		stripes := make([]*StripeMsg, 4)
		copy(stripes, all)
		stripes[drop] = nil
		got, err := s.Reassemble(b.Header, stripes)
		if err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		if got.Header.Hash() != b.Header.Hash() {
			t.Fatalf("drop %d: header changed", drop)
		}
		if len(got.Txs) != 50 || got.Txs[13].Hash() != txs[13].Hash() {
			t.Fatalf("drop %d: body corrupted", drop)
		}
	}
	// Two losses cannot reconstruct.
	stripes := make([]*StripeMsg, 4)
	copy(stripes, all)
	stripes[0], stripes[1] = nil, nil
	if _, err := s.Reassemble(b.Header, stripes); err == nil {
		t.Fatal("reconstructed from too few stripes")
	}
}

func TestVerifyStripeRejectsTampering(t *testing.T) {
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 78)
	txs := mkTxs(10, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)
	m, _ := set.Stripe(b.Header, 2)

	tampered := *m
	tampered.Shard = append([]byte(nil), m.Shard...)
	tampered.Shard[0] ^= 1
	if err := s.VerifyStripe(&tampered); err == nil {
		t.Fatal("tampered shard accepted")
	}
	wrongIdx := *m
	wrongIdx.Index = 3
	if err := s.VerifyStripe(&wrongIdx); err == nil {
		t.Fatal("stripe with wrong index accepted")
	}
	oob := *m
	oob.Index = 9
	if err := s.VerifyStripe(&oob); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestStripeSetProofs: the proofs Encode lays out in one slab are the
// tree's sibling paths, each capped so an append cannot reach its
// neighbour.
func TestStripeSetProofs(t *testing.T) {
	for _, nc := range []int{1, 2, 4, 5, 7, 8, 16, 25} {
		s, err := NewStriper(nc, (nc-1)/3)
		if err != nil {
			t.Fatal(err)
		}
		set, err := s.Encode(mkTxs(9, uint64(nc)))
		if err != nil {
			t.Fatal(err)
		}
		tree := merkle.NewTree(set.Shards)
		if tree.Root() != set.Root {
			t.Fatalf("nc=%d: set root differs from the tree over its shards", nc)
		}
		for i := 0; i < nc; i++ {
			want, _ := tree.Proof(i)
			got := set.proof(i)
			if !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("nc=%d i=%d: proof %d elements (cap %d), want %d", nc, i, len(got), cap(got), len(want))
			}
			if !merkle.Verify(set.Root, set.Shards[i], i, nc, got) {
				t.Fatalf("nc=%d i=%d: proof rejected", nc, i)
			}
			_ = append(got, crypto.Hash{0xff})
		}
		for i := 0; i < nc; i++ {
			if want, _ := tree.Proof(i); !slices.Equal(set.proof(i), want) {
				t.Fatalf("nc=%d: an append to a proof overwrote stripe %d's", nc, i)
			}
		}
	}
}

var proofSink []crypto.Hash

func TestStripeProofZeroAlloc(t *testing.T) {
	s, _ := NewStriper(7, 2)
	set, err := s.Encode(mkTxs(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { proofSink = set.proof(5) }); a != 0 {
		t.Fatalf("StripeSet proof slice: %v allocs/op, want 0", a)
	}
}

var bundleSink *core.Bundle

// TestReassembleMemoHitZeroAlloc: once one full node reassembled a bundle,
// another holding any of its stripes gets the memo without allocating.
func TestReassembleMemoHitZeroAlloc(t *testing.T) {
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 80)
	txs := mkTxs(50, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)
	all := make([]*StripeMsg, 4)
	for i := range all {
		all[i], _ = set.Stripe(b.Header, i)
	}
	first, err := s.Reassemble(b.Header, []*StripeMsg{all[0], all[1], all[2], nil})
	if err != nil {
		t.Fatal(err)
	}
	other := []*StripeMsg{nil, all[1], all[2], all[3]}
	if a := testing.AllocsPerRun(100, func() {
		bundleSink, err = s.Reassemble(b.Header, other)
	}); a != 0 {
		t.Fatalf("Reassemble on a memo hit: %v allocs/op, want 0", a)
	}
	if err != nil || bundleSink != first {
		t.Fatalf("memo hit returned %p, %v; want the first reassembly %p", bundleSink, err, first)
	}
}

// TestDistributorStripeCache: the set the StripeRoot hook encoded serves
// the bundle whose header commits to its root, and only that bundle.
func TestDistributorStripeCache(t *testing.T) {
	striper, _ := NewStriper(4, 1)
	d := NewDistributor(2, 4, striper, 0)
	d.ctx = &sendLog{}
	d.subscribers[50] = true
	d.subsChanged()
	signer := crypto.NewSimSuite(4, 81).Signer(2)

	own := mkTxs(5, 0)
	root := d.StripeRoot(own)
	cached := d.cacheSet
	b := core.PackBundleStriped(signer, 2, nil, own, make(core.TipList, 4), root)
	d.OnBundleStored(b)
	if b.StripeCache() != cached || d.cacheSet != nil {
		t.Fatal("own bundle did not take the hook's stripe set")
	}

	d.StripeRoot(own)
	other := mkTxs(5, 100)
	set, _ := striper.Encode(other)
	peer := core.PackBundleStriped(signer, 2, nil, other, make(core.TipList, 4), set.Root)
	d.OnBundleStored(peer)
	got, _ := peer.StripeCache().(*StripeSet)
	if got == nil || got == cached || got.Root != set.Root {
		t.Fatal("a bundle with another stripe root took the cached set")
	}
}

func TestStripeMsgCodec(t *testing.T) {
	RegisterMessages()
	core.RegisterMessages()
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 79)
	txs := mkTxs(20, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(1), 1, nil, txs, make(core.TipList, 4), set.Root)
	m, _ := set.Stripe(b.Header, 0)
	got, err := wire.Roundtrip(m)
	if err != nil {
		t.Fatal(err)
	}
	gm := got.(*StripeMsg)
	if err := s.VerifyStripe(gm); err != nil {
		t.Fatalf("stripe invalid after roundtrip: %v", err)
	}
	if len(wire.Marshal(m)) != m.WireSize() {
		t.Fatalf("StripeMsg WireSize %d vs %d", m.WireSize(), len(wire.Marshal(m)))
	}
}

func TestZoneMessageCodecs(t *testing.T) {
	RegisterMessages()
	core.RegisterMessages()
	suite := crypto.NewSimSuite(4, 80)
	blk := &core.PredisBlock{
		Height: 3, Leader: 1,
		Cuts: []core.Cut{{Height: 5, Head: crypto.HashBytes([]byte("h"))}, {}, {}, {}},
	}
	blk.Sig = suite.Signer(1).Sign(blk.Hash())

	msgs := []wire.Message{
		&Subscribe{Stripes: []uint8{0, 2}},
		&AcceptSubscribe{Stripes: []uint8{1}, FromConsensus: true},
		&RejectSubscribe{Stripes: []uint8{3}, Children: []wire.NodeID{9, 10}},
		&Unsubscribe{Stripes: []uint8{0}},
		&RelayerAlive{Relayer: 42, JoinSeq: 7, Stripes: []uint8{1, 2}, Zone: 3},
		&Leave{IsRelayer: true},
		&Heartbeat{},
		&ZoneBlock{Block: blk},
		&BlockDigest{Height: 9, Tips: []uint64{1, 2, 3, 4}},
		&GetRelayers{Zone: 2},
		&RelayersInfo{Zone: 2, Relayers: []RelayerEntry{{Node: 5, JoinSeq: 1, Stripes: []uint8{0}}}},
		&BlockRequest{Height: 4},
		&BlockResponse{Head: 9, Anchor: blk, Blocks: []*core.PredisBlock{blk}},
		&BlockResponse{Head: 9, Blocks: []*core.PredisBlock{blk}}, // catch-up without a skip-sync anchor
		&ZoneSpec{Block: blk},
		&ZoneSpecDiscard{Height: 3, Hash: blk.Hash()},
	}
	for _, m := range msgs {
		got, err := wire.Roundtrip(m)
		if err != nil {
			t.Fatalf("%s roundtrip: %v", wire.TypeName(m.Type()), err)
		}
		if len(wire.Marshal(m)) != m.WireSize() {
			t.Fatalf("%s WireSize mismatch: declared %d, marshaled %d",
				wire.TypeName(m.Type()), m.WireSize(), len(wire.Marshal(m)))
		}
		_ = got
	}

	// The block must survive the ZoneBlock embedding intact.
	got, _ := wire.Roundtrip(&ZoneBlock{Block: blk})
	gb := got.(*ZoneBlock).Block
	if gb.Hash() != blk.Hash() {
		t.Fatal("ZoneBlock changed the inner block hash")
	}
	if !suite.Signer(0).Verify(1, gb.Hash(), gb.Sig) {
		t.Fatal("inner block signature lost")
	}

	// Same for the speculative push, and field fidelity for its retraction.
	gotSpec, _ := wire.Roundtrip(&ZoneSpec{Block: blk})
	if gs := gotSpec.(*ZoneSpec).Block; gs.Hash() != blk.Hash() ||
		!suite.Signer(0).Verify(1, gs.Hash(), gs.Sig) {
		t.Fatal("ZoneSpec changed the inner block")
	}
	disc := &ZoneSpecDiscard{Height: 3, Hash: blk.Hash()}
	if got, err := wire.Roundtrip(disc); err != nil || *got.(*ZoneSpecDiscard) != *disc {
		t.Fatalf("ZoneSpecDiscard fidelity: got %+v err %v", got, err)
	}
}

func TestQuickStripeReassembly(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	suite := crypto.NewSimSuite(8, 81)
	f := func(txCountRaw, dropRaw uint8, seed uint64) bool {
		s, err := NewStriper(8, 2)
		if err != nil {
			return false
		}
		txs := mkTxs(1+int(txCountRaw)%60, seed)
		set, err := s.Encode(txs)
		if err != nil {
			return false
		}
		b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 8), set.Root)
		stripes := make([]*StripeMsg, 8)
		for i := 0; i < 8; i++ {
			stripes[i], _ = set.Stripe(b.Header, i)
		}
		// Drop up to f=2 stripes.
		stripes[int(dropRaw)%8] = nil
		stripes[int(dropRaw/8)%8] = nil
		got, err := s.Reassemble(b.Header, stripes)
		if err != nil {
			return false
		}
		return got.Header.TxRoot == b.Header.TxRoot && len(got.Txs) == len(txs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
