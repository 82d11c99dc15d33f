package exec

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

const genesis = 1000

func transfer(seq uint64, from, to, amount uint64) *types.Transaction {
	return types.NewTransaction(wire.NodeID(1+seq%4), seq, types.DefaultTxSize, time.Duration(seq)).
		WithOp(types.Op{Kind: types.OpTransfer, From: from, To: to, Amount: amount})
}

func rmw(seq uint64, reads, writes []uint64, delta uint64) *types.Transaction {
	return types.NewTransaction(wire.NodeID(1+seq%4), seq, types.DefaultTxSize, time.Duration(seq)).
		WithOp(types.Op{Kind: types.OpRMW, Reads: reads, Writes: writes, Delta: delta})
}

func opaque(seq uint64) *types.Transaction {
	return types.NewTransaction(wire.NodeID(1+seq%4), seq, types.DefaultTxSize, time.Duration(seq))
}

// levelsOf extracts each transaction's level index for comparison.
func levelsOf(m *Machine, txs []*types.Transaction) map[uint64]int {
	sem := semantic(txs)
	got := map[uint64]int{}
	for lvl, idxs := range m.levelize(txs, sem) {
		for _, ti := range idxs {
			got[txs[ti].Seq] = lvl
		}
	}
	return got
}

func TestLevelizeConflictFree(t *testing.T) {
	m := NewMachine(genesis)
	txs := []*types.Transaction{
		transfer(0, 1, 2, 5),
		transfer(1, 3, 4, 5),
		opaque(2),
		transfer(3, 5, 6, 5),
	}
	lv := levelsOf(m, txs)
	if lv[0] != 0 || lv[1] != 0 || lv[3] != 0 {
		t.Fatalf("disjoint transfers must share level 0: %v", lv)
	}
	if _, ok := lv[2]; ok {
		t.Fatal("opaque tx must not be leveled")
	}
}

func TestLevelizeConflictChain(t *testing.T) {
	m := NewMachine(genesis)
	txs := []*types.Transaction{
		transfer(0, 1, 2, 5),                 // writes {1,2}
		transfer(1, 2, 3, 5),                 // RAW+WAW on 2 -> level 1
		transfer(2, 3, 4, 5),                 // conflicts with seq 1 on 3 -> level 2
		transfer(3, 9, 10, 5),                // independent -> level 0
		rmw(4, []uint64{1}, []uint64{20}, 1), // reads 1 (written at lvl 0) -> level 1
		rmw(5, nil, []uint64{1}, 1),          // writes 1: past writer lvl 0 AND reader lvl 1 -> level 2
	}
	lv := levelsOf(m, txs)
	want := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}
	for seq, w := range want {
		if lv[seq] != w {
			t.Fatalf("seq %d level = %d, want %d (all: %v)", seq, lv[seq], w, lv)
		}
	}
}

func TestExecuteBlockTransferSemantics(t *testing.T) {
	m := NewMachine(genesis)
	res := m.ExecuteBlock(1, []*types.Transaction{
		transfer(0, 1, 2, 300),
		transfer(1, 1, 3, 300), // serial predecessor left 700 -> applies
		transfer(2, 1, 4, 500), // balance now 400 -> deterministic abort
		transfer(3, 7, 7, 999), // self-transfer: applies, moves nothing
		opaque(4),
	})
	if res.Txs != 4 || res.Applied != 3 || res.Aborted != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := m.Balance(1); got != genesis-600 {
		t.Fatalf("Balance(1) = %d, want %d", got, genesis-600)
	}
	if got := m.Balance(2); got != genesis+300 {
		t.Fatalf("Balance(2) = %d, want %d", got, genesis+300)
	}
	if got := m.Balance(4); got != genesis {
		t.Fatalf("aborted transfer must not move funds: Balance(4) = %d", got)
	}
	if m.Height() != 1 {
		t.Fatalf("Height = %d", m.Height())
	}
}

func TestMVCacheVersioning(t *testing.T) {
	c := NewMVCache()
	if c.Version(7) != -1 || c.Len() != 0 {
		t.Fatal("empty cache must report no versions")
	}
	c.Merge(0, []WriteOp{{Key: 7, Val: 10}, {Key: 8, Val: 11}})
	c.Merge(2, []WriteOp{{Key: 7, Val: 20}})
	if c.Version(7) != 2 || c.Version(8) != 0 || c.Len() != 2 {
		t.Fatalf("versions = %d,%d len %d", c.Version(7), c.Version(8), c.Len())
	}
	state := map[uint64]uint64{8: 1}
	c.flushInto(state)
	if state[7] != 20 || state[8] != 11 {
		t.Fatalf("flush kept stale values: %v", state)
	}
}

// highConflictBlock is a schedule where nearly every transaction
// conflicts with a predecessor: long RAW/WAW chains over a tiny account
// set, interleaved with independent work and deterministic aborts.
func highConflictBlock(n int) []*types.Transaction {
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		seq := uint64(i)
		switch i % 5 {
		case 0:
			txs = append(txs, transfer(seq, 1, 2, 50))
		case 1:
			txs = append(txs, transfer(seq, 2, 3, 120))
		case 2:
			txs = append(txs, rmw(seq, []uint64{1, 3}, []uint64{2}, 7))
		case 3:
			txs = append(txs, transfer(seq, 3, 1, 900)) // aborts once 3 drains
		default:
			txs = append(txs, rmw(seq, nil, []uint64{4, 5}, 3))
		}
	}
	return txs
}

// uniformBlock is a mostly conflict-free schedule across many accounts.
func uniformBlock(n int) []*types.Transaction {
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		seq := uint64(i)
		from := 100 + 2*seq
		txs = append(txs, transfer(seq, from, from+1, 25))
	}
	return txs
}

// foldResults hashes the full observable result sequence — roots and
// every counter — so two executions compare as one value.
func foldResults(rs []Result) crypto.Hash {
	h := crypto.ZeroHash
	for _, r := range rs {
		h = crypto.HashConcat(h[:], r.StateRoot[:], []byte{
			byte(r.Height), byte(r.Txs), byte(r.Applied),
			byte(r.Aborted), byte(r.Levels), byte(r.MaxWidth),
		})
	}
	return h
}

func runBlocks(serial bool, blocks [][]*types.Transaction) ([]Result, crypto.Hash, *Machine) {
	m := NewMachine(genesis)
	var rs []Result
	for i, blk := range blocks {
		if serial {
			rs = append(rs, m.ExecuteBlockSerial(uint64(i+1), blk))
		} else {
			rs = append(rs, m.ExecuteBlock(uint64(i+1), blk))
		}
	}
	return rs, m.StateRoot(), m
}

// TestLevelledMatchesSerial is the determinism pin: the same block
// sequence executed twice by the levelled committer must produce
// byte-identical state roots and result counters, on both a
// high-conflict and a conflict-free schedule — and must equal the serial
// reference committer.
func TestLevelledMatchesSerial(t *testing.T) {
	blocks := [][]*types.Transaction{
		highConflictBlock(64),
		uniformBlock(64),
		highConflictBlock(31),
		{opaque(0), opaque(1)}, // all-opaque block
		{},                     // empty block
	}
	serialRes, serialRoot, _ := runBlocks(true, blocks)
	var first crypto.Hash
	for run := 0; run < 2; run++ {
		rs, root, m := runBlocks(false, blocks)
		if root != serialRoot {
			t.Fatalf("run %d: state root %s != serial %s", run, root.Short(), serialRoot.Short())
		}
		for i := range rs {
			if rs[i].StateRoot != serialRes[i].StateRoot ||
				rs[i].Applied != serialRes[i].Applied ||
				rs[i].Aborted != serialRes[i].Aborted {
				t.Fatalf("run %d block %d: %+v != serial %+v", run, i+1, rs[i], serialRes[i])
			}
		}
		// Levelled runs share one fold too (serial differs only in the
		// Levels/MaxWidth shape counters, checked elsewhere).
		if f := foldResults(rs); run == 0 {
			first = f
		} else if f != first {
			t.Fatal("levelled result fold diverged between runs")
		}
		if m.Stats().Aborted == 0 {
			t.Fatal("schedule must exercise deterministic aborts")
		}
	}
}

// TestBundleCommitterEquivalence pins the streaming committer: executing
// a block bundle-by-bundle must yield the same state root and
// applied/aborted counts as executing the flattened block at once, and as
// the serial reference.
func TestBundleCommitterEquivalence(t *testing.T) {
	bundles := [][]*types.Transaction{
		highConflictBlock(17),
		uniformBlock(23),
		{},                     // empty bundle (stream heartbeat)
		{opaque(0), opaque(1)}, // all-opaque bundle
		highConflictBlock(9),
	}
	var flat []*types.Transaction
	for _, b := range bundles {
		flat = append(flat, b...)
	}
	ref := NewMachine(genesis)
	refRes := ref.ExecuteBlockSerial(1, flat)

	whole := NewMachine(genesis)
	wres := whole.ExecuteBlock(1, flat)
	byBundle := NewMachine(genesis)
	bres := byBundle.ExecuteBlockBundles(1, bundles)
	if bres.StateRoot != wres.StateRoot || bres.StateRoot != refRes.StateRoot {
		t.Fatalf("bundle root %s, block root %s, serial root %s",
			bres.StateRoot.Short(), wres.StateRoot.Short(), refRes.StateRoot.Short())
	}
	if bres.Txs != wres.Txs || bres.Applied != wres.Applied || bres.Aborted != wres.Aborted {
		t.Fatalf("bundle counters %+v != block %+v", bres, wres)
	}
	if byBundle.Height() != 1 {
		t.Fatalf("Height = %d", byBundle.Height())
	}
	// Per-bundle leveling cannot be flatter than whole-block leveling
	// (it forgoes cross-bundle width), and never exceeds the tx count.
	if bres.Levels < wres.Levels || bres.Levels > bres.Txs {
		t.Fatalf("bundle levels %d outside [%d, %d]", bres.Levels, wres.Levels, bres.Txs)
	}
}

// TestParallelismAvailable checks the leveler actually finds width: the
// conflict-free schedule must collapse to one wide level, the
// high-conflict one must stay narrow.
func TestParallelismAvailable(t *testing.T) {
	m := NewMachine(genesis)
	res := m.ExecuteBlock(1, uniformBlock(64))
	if res.Levels != 1 || res.MaxWidth != 64 {
		t.Fatalf("conflict-free block: levels=%d maxWidth=%d, want 1/64", res.Levels, res.MaxWidth)
	}
	m2 := NewMachine(genesis)
	res2 := m2.ExecuteBlock(1, highConflictBlock(64))
	if res2.Levels < 10 {
		t.Fatalf("high-conflict block leveled too flat: levels=%d", res2.Levels)
	}
	if res2.Levels > res2.Txs {
		t.Fatalf("levels %d exceed txs %d", res2.Levels, res2.Txs)
	}
}

func TestStateRootCommitsToState(t *testing.T) {
	a := NewMachine(genesis)
	b := NewMachine(genesis)
	if a.StateRoot() != b.StateRoot() {
		t.Fatal("fresh machines must agree")
	}
	a.ExecuteBlock(1, []*types.Transaction{transfer(0, 1, 2, 5)})
	if a.StateRoot() == b.StateRoot() {
		t.Fatal("root must change when state changes")
	}
	b.ExecuteBlockSerial(1, []*types.Transaction{transfer(0, 1, 2, 5)})
	if a.StateRoot() != b.StateRoot() {
		t.Fatal("serial and levelled committers diverged on one transfer")
	}
	c := NewMachine(genesis + 1)
	if c.StateRoot() == b.StateRoot() && c.Touched() == 0 {
		t.Fatal("root must commit to the genesis balance")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := NewMachine(genesis)
	m.ExecuteBlock(1, uniformBlock(8))
	m.ExecuteBlock(2, highConflictBlock(10))
	s := m.Stats()
	if s.Blocks != 2 || s.Txs != 18 || s.Applied+s.Aborted != 18 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanWidth() <= 1 {
		t.Fatalf("mean width = %f, want > 1 (uniform block is wide)", s.MeanWidth())
	}
	if m.Height() != 2 {
		t.Fatalf("Height = %d", m.Height())
	}
}

func TestRMWDelta(t *testing.T) {
	m := NewMachine(genesis)
	m.ExecuteBlock(1, []*types.Transaction{
		rmw(0, nil, []uint64{5}, 10),
		rmw(1, []uint64{5}, []uint64{5}, 10), // chained: sees 1010
	})
	if got := m.Balance(5); got != genesis+20 {
		t.Fatalf("Balance(5) = %d, want %d", got, genesis+20)
	}
}
