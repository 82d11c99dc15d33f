// Replay-hash backstop for the determinism contract enforced statically
// by predis-lint (tools/analyzers). The static suite forbids the usual
// nondeterminism sources (wall clocks, global rand, raw goroutines,
// map-order emission); this runtime check closes the loop: two runs of
// the same experiment with the same seed must produce byte-identical
// delivery traces. Any nondeterminism the analyzers cannot see — a new
// dependency, unsafe tricks, scheduler leakage — shows up here as a
// hash mismatch.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"time"

	"predis/internal/simnet"
	"predis/internal/wire"
)

// ReplayTrace folds every simnet delivery into a running SHA-256. The
// digest covers (from, to, message type, wire size, virtual delivery
// time), so two runs agree iff they delivered the same messages in the
// same order at the same virtual instants.
type ReplayTrace struct {
	h hash.Hash
	n uint64
	// buf stages one delivery record. It lives on the trace because a
	// local array passed to the hash.Hash interface escapes, which would
	// cost one heap object per delivery. Bytes 26–27 are never written
	// and stay zero.
	buf [28]byte
}

// NewReplayTrace returns an empty trace.
func NewReplayTrace() *ReplayTrace {
	return &ReplayTrace{h: sha256.New()}
}

// Attach installs the trace on net, chaining any OnDeliver hook already
// present so observation stays composable.
func (t *ReplayTrace) Attach(net *simnet.Network) {
	prev := net.OnDeliver
	net.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) {
		t.record(from, to, m, at)
		if prev != nil {
			prev(from, to, m, at)
		}
	}
}

//predis:hotpath
func (t *ReplayTrace) record(from, to wire.NodeID, m wire.Message, at time.Time) {
	buf := t.buf[:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(from))
	binary.LittleEndian.PutUint32(buf[4:], uint32(to))
	binary.LittleEndian.PutUint16(buf[8:], uint16(m.Type()))
	binary.LittleEndian.PutUint64(buf[10:], uint64(m.WireSize()))
	binary.LittleEndian.PutUint64(buf[18:], uint64(at.Sub(simnet.Epoch)))
	t.h.Write(buf)
	t.n++
}

// Sum returns the hex digest of everything recorded so far.
func (t *ReplayTrace) Sum() string {
	return hex.EncodeToString(t.h.Sum(nil))
}

// Deliveries returns how many deliveries were folded in.
func (t *ReplayTrace) Deliveries() uint64 { return t.n }
