// Package exec is the deterministic execution plane: an account state
// machine over the semantic operations carried by types.Transaction
// (transfer / read-modify-write with declared read and write sets) and a
// two-phase levelled committer in the Octopus/DAG style.
//
// Phase one is pure bookkeeping: the block's committed transactions are
// grouped into dependency levels by read/write-set conflict analysis
// (RAW, WAR, and WAW conflicts all order transactions into later levels;
// read-read sharing does not). The construction guarantees two
// properties inside any single level: no two transactions write the same
// key, and no transaction reads a key a level-mate writes. Every kernel
// of a level therefore sees exactly the pre-level state, and the level's
// write sets are disjoint — so the merge result is independent of the
// order the level's kernels run in.
//
// Phase two runs each level's transactions as pure kernels: each kernel
// reads the pre-level Snapshot and buffers its writes into its own
// output slot. Once the level is done the buffered writes merge into the
// block's multi-version state cache (MVCache), versioned by level; the
// cache flushes into the base state once per block. The resulting state
// root is identical to the serial reference committer's, which applies
// transactions strictly in commit order; because kernels read the
// pre-level state, a leveling error shows up as a root mismatch there.
//
// Like every protocol component, a Machine is driven from the single
// simulator goroutine.
package exec

import (
	"encoding/binary"
	"slices"

	"predis/internal/crypto"
	"predis/internal/types"
)

// WriteOp is one buffered account write.
type WriteOp struct {
	Key, Val uint64
}

// effect is one transaction's buffered outcome: its writes, or a
// deterministic abort (insufficient balance) with no writes.
type effect struct {
	writes  []WriteOp
	aborted bool
}

// Snapshot is the read-only state view a level's kernels execute
// against: the committed base state plus the multi-version cache of all
// previously merged levels. Merges happen only between levels, so it is
// immutable while a level runs.
type Snapshot struct {
	base    map[uint64]uint64
	cache   map[uint64]uint64
	genesis uint64
}

// Get returns the balance of an account, falling back to the genesis
// default for accounts never written.
func (s Snapshot) Get(key uint64) uint64 {
	if v, ok := s.cache[key]; ok {
		return v
	}
	if v, ok := s.base[key]; ok {
		return v
	}
	return s.genesis
}

// MVCache is the multi-version state cache of one block's execution:
// each dependency level's writes merge into it once the level is done,
// tagged with the level as their version, and the whole cache flushes
// into the base state once at block commit. Kernels read it only
// through Snapshot.
type MVCache struct {
	vals    map[uint64]uint64
	version map[uint64]int
}

// NewMVCache builds an empty cache.
func NewMVCache() *MVCache {
	return &MVCache{
		vals:    make(map[uint64]uint64),
		version: make(map[uint64]int),
	}
}

// Merge applies one level's buffered writes, recording the level as the
// written keys' version. Call only once the level is done.
func (c *MVCache) Merge(level int, writes []WriteOp) {
	for _, w := range writes {
		c.vals[w.Key] = w.Val
		c.version[w.Key] = level
	}
}

// Version returns the level that last wrote key, or -1 when the cache
// holds no version for it.
func (c *MVCache) Version(key uint64) int {
	if v, ok := c.version[key]; ok {
		return v
	}
	return -1
}

// Len returns the number of distinct keys written.
func (c *MVCache) Len() int { return len(c.vals) }

// flushInto folds the cached values into the base state and appends to
// fresh every key the state did not hold before.
func (c *MVCache) flushInto(state map[uint64]uint64, fresh []uint64) []uint64 {
	for k, v := range c.vals {
		if _, ok := state[k]; !ok {
			fresh = append(fresh, k)
		}
		state[k] = v
	}
	return fresh
}

// Result summarizes one block's execution.
type Result struct {
	Height    uint64
	StateRoot crypto.Hash
	// Txs counts the block's semantic (non-opaque) transactions.
	Txs int
	// Applied and Aborted partition Txs; aborts are deterministic
	// (insufficient balance), never scheduling artifacts.
	Applied, Aborted int
	// Levels is the dependency-level count; MaxWidth the widest level.
	// Levels == 1 means the whole block was conflict-free; mean width
	// (Txs/Levels) is the committer's available parallelism, which is
	// the meaningful measure even on a 1-CPU host.
	Levels, MaxWidth int
}

// Stats aggregates execution counters across a machine's lifetime.
type Stats struct {
	Blocks, Txs, Applied, Aborted int
	Levels, MaxWidth              int
}

// MeanWidth returns the lifetime mean dependency-level width.
func (s Stats) MeanWidth() float64 {
	if s.Levels == 0 {
		return 0
	}
	return float64(s.Txs) / float64(s.Levels)
}

// Machine is the account state machine one node maintains. All methods
// run on the event loop; a machine is never shared between nodes (each
// replica executes its own copy of the committed sequence).
type Machine struct {
	genesis uint64
	state   map[uint64]uint64
	height  uint64
	stats   Stats

	// scratch buffers reused across blocks by the leveler and the level
	// loop.
	rbuf, wbuf []uint64
	effs       []effect

	// keys lists the keys of state in ascending order; commit merges each
	// block's first-written keys in (fresh is their scratch buffer), so
	// StateRoot never sorts. rootBuf is StateRoot's reused encoding.
	keys, fresh []uint64
	rootBuf     []byte
}

// NewMachine builds a machine whose accounts all start at the genesis
// balance.
func NewMachine(genesis uint64) *Machine {
	return &Machine{genesis: genesis, state: make(map[uint64]uint64)}
}

// Height returns the last executed block height.
func (m *Machine) Height() uint64 { return m.height }

// Balance returns an account's balance (genesis default when never
// written).
func (m *Machine) Balance(key uint64) uint64 {
	if v, ok := m.state[key]; ok {
		return v
	}
	return m.genesis
}

// Touched returns how many accounts have been written since genesis.
func (m *Machine) Touched() int { return len(m.state) }

// Stats returns the lifetime execution counters.
func (m *Machine) Stats() Stats { return m.stats }

// StateRoot returns the commitment to the full account state: the hash
// of the genesis balance followed by every written (account, balance)
// pair in ascending account order. Two machines agree on the root iff
// they agree on every balance.
//
//predis:hotpath
func (m *Machine) StateRoot() crypto.Hash {
	need := 8 + 16*len(m.keys)
	if cap(m.rootBuf) < need {
		m.rootBuf = make([]byte, need, 2*need) //predis:allocok grows with the account set, amortized
	}
	buf := m.rootBuf[:need]
	binary.BigEndian.PutUint64(buf, m.genesis)
	for i, k := range m.keys {
		binary.BigEndian.PutUint64(buf[8+16*i:], k)
		binary.BigEndian.PutUint64(buf[16+16*i:], m.state[k])
	}
	return crypto.HashBytes(buf)
}

// admitKeys merges the block's first-written keys into the ordered key
// list: a sort of the new keys, usually few, and one backward merge, so
// a block costs O(new log new + accounts) rather than a full sort.
func (m *Machine) admitKeys(fresh []uint64) {
	if len(fresh) == 0 {
		return
	}
	slices.Sort(fresh)
	i, j := len(m.keys)-1, len(fresh)-1
	m.keys = append(m.keys, fresh...)
	for k := len(m.keys) - 1; j >= 0; k-- {
		if i >= 0 && m.keys[i] > fresh[j] {
			m.keys[k] = m.keys[i]
			i--
		} else {
			m.keys[k] = fresh[j]
			j--
		}
	}
}

// semantic returns the indices of the block's non-opaque transactions.
func semantic(txs []*types.Transaction) []int {
	out := make([]int, 0, len(txs))
	for i, tx := range txs {
		if !tx.Op.IsNoop() {
			out = append(out, i)
		}
	}
	return out
}

// levelize groups the block's semantic transactions into dependency
// levels. A transaction lands one level past the latest conflicting
// predecessor in commit order: past the last writer of anything it
// reads (RAW), and past both the last writer (WAW) and the last reader
// (WAR) of anything it writes. Within a level, write sets are disjoint
// and no transaction reads a level-mate's writes, so level-internal
// execution order cannot matter.
func (m *Machine) levelize(txs []*types.Transaction, sem []int) [][]int {
	lastRead := make(map[uint64]int, len(sem)*2)
	lastWrite := make(map[uint64]int, len(sem)*2)
	var levels [][]int
	for _, ti := range sem {
		op := &txs[ti].Op
		m.rbuf = op.ReadKeys(m.rbuf[:0])
		m.wbuf = op.WriteKeys(m.wbuf[:0])
		lvl := 0
		for _, k := range m.rbuf {
			if w, ok := lastWrite[k]; ok && w+1 > lvl {
				lvl = w + 1
			}
		}
		for _, k := range m.wbuf {
			if w, ok := lastWrite[k]; ok && w+1 > lvl {
				lvl = w + 1
			}
			if r, ok := lastRead[k]; ok && r+1 > lvl {
				lvl = r + 1
			}
		}
		for _, k := range m.rbuf {
			if r, ok := lastRead[k]; !ok || lvl > r {
				lastRead[k] = lvl
			}
		}
		for _, k := range m.wbuf {
			lastWrite[k] = lvl // strictly increasing per key (WAW ordered)
		}
		for lvl >= len(levels) {
			levels = append(levels, nil)
		}
		levels[lvl] = append(levels[lvl], ti)
	}
	return levels
}

// applyOp executes one semantic operation against the snapshot and
// returns its buffered effect. It is a pure kernel: it reads only snap
// and the op and writes only its own return value, so a level's kernels
// may run in any order. Both committers (levelled and serial) apply ops
// through this one function, so their per-op semantics cannot drift.
func applyOp(snap Snapshot, op *types.Op) effect {
	switch op.Kind {
	case types.OpTransfer:
		if op.From == op.To {
			return effect{} // self-transfer: applies, moves nothing
		}
		from := snap.Get(op.From)
		if from < op.Amount {
			return effect{aborted: true}
		}
		return effect{writes: []WriteOp{
			{Key: op.From, Val: from - op.Amount},
			{Key: op.To, Val: snap.Get(op.To) + op.Amount},
		}}
	case types.OpRMW:
		var fold uint64
		for _, k := range op.Reads {
			fold ^= snap.Get(k) // the read half: observe, don't write
		}
		_ = fold
		writes := make([]WriteOp, 0, len(op.Writes))
		for _, k := range op.Writes {
			writes = append(writes, WriteOp{Key: k, Val: snap.Get(k) + op.Delta})
		}
		return effect{writes: writes}
	}
	return effect{}
}

// ExecuteBlock runs the two-phase levelled committer over one committed
// block: levelize, then execute each level's kernels against the
// pre-level state and merge their buffered writes through the
// multi-version cache. The returned state root equals
// ExecuteBlockSerial's on the same machine state and transaction
// sequence.
func (m *Machine) ExecuteBlock(height uint64, txs []*types.Transaction) Result {
	sem := semantic(txs)
	levels := m.levelize(txs, sem)
	cache := NewMVCache()
	res := Result{Height: height, Txs: len(sem), Levels: len(levels)}
	m.runLevels(txs, levels, cache, 0, &res)
	m.commit(cache, &res)
	return res
}

// runLevels executes dependency levels against the block's cache, tagging
// merged writes with lvlBase+level so callers that execute a block in
// several leveling units (per-bundle streaming) keep cache versions
// monotonic across units.
func (m *Machine) runLevels(txs []*types.Transaction, levels [][]int,
	cache *MVCache, lvlBase int, res *Result) {
	snap := Snapshot{base: m.state, cache: cache.vals, genesis: m.genesis}
	for lvl, idxs := range levels {
		if len(idxs) > res.MaxWidth {
			res.MaxWidth = len(idxs)
		}
		// Every kernel reads the pre-level state: buffer the whole
		// level's effects before merging any of them.
		m.effs = m.effs[:0]
		for _, ti := range idxs {
			m.effs = append(m.effs, applyOp(snap, &txs[ti].Op))
		}
		for _, eff := range m.effs {
			if eff.aborted {
				res.Aborted++
			} else {
				res.Applied++
			}
			cache.Merge(lvlBase+lvl, eff.writes)
		}
	}
}

// ExecuteBlockBundles is the streaming-mode committer: it executes one
// committed block's transactions bundle by bundle, levelizing each bundle
// independently and merging its levels into the shared per-block cache at
// bundle joins instead of one block-wide join. Cross-bundle conflicts
// need no analysis — a later bundle's snapshot already contains every
// earlier bundle's merged writes, which serializes bundles exactly as
// commit order does — so the state root equals ExecuteBlock's over the
// flattened transaction sequence.
func (m *Machine) ExecuteBlockBundles(height uint64, bundles [][]*types.Transaction) Result {
	cache := NewMVCache()
	res := Result{Height: height}
	lvlBase := 0
	for _, txs := range bundles {
		sem := semantic(txs)
		levels := m.levelize(txs, sem)
		res.Txs += len(sem)
		res.Levels += len(levels)
		m.runLevels(txs, levels, cache, lvlBase, &res)
		lvlBase += len(levels)
	}
	m.commit(cache, &res)
	return res
}

// ExecuteBlockSerial is the reference committer: it applies the block's
// semantic transactions strictly in commit order, one level each. It
// exists to pin the levelled committer's semantics (identical state
// roots) and as the contention experiment's baseline.
func (m *Machine) ExecuteBlockSerial(height uint64, txs []*types.Transaction) Result {
	sem := semantic(txs)
	cache := NewMVCache()
	res := Result{Height: height, Txs: len(sem), Levels: len(sem)}
	if len(sem) > 0 {
		res.MaxWidth = 1
	}
	for i, ti := range sem {
		snap := Snapshot{base: m.state, cache: cache.vals, genesis: m.genesis}
		eff := applyOp(snap, &txs[ti].Op)
		if eff.aborted {
			res.Aborted++
		} else {
			res.Applied++
		}
		cache.Merge(i, eff.writes)
	}
	m.commit(cache, &res)
	return res
}

// commit flushes the block's cache into the base state and finalizes
// the result and lifetime stats.
func (m *Machine) commit(cache *MVCache, res *Result) {
	m.fresh = cache.flushInto(m.state, m.fresh[:0])
	m.admitKeys(m.fresh)
	m.height = res.Height
	res.StateRoot = m.StateRoot()
	m.stats.Blocks++
	m.stats.Txs += res.Txs
	m.stats.Applied += res.Applied
	m.stats.Aborted += res.Aborted
	m.stats.Levels += res.Levels
	if res.MaxWidth > m.stats.MaxWidth {
		m.stats.MaxWidth = res.MaxWidth
	}
}
