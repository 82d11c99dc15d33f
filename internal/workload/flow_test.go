package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

// flowSink counts submitted transactions and hashes their (seq, Submitted)
// arrival stream.
type flowSink struct {
	n int
	h hash.Hash
}

func (s *flowSink) Start(env.Context) {}

func (s *flowSink) Receive(_ wire.NodeID, m wire.Message) {
	sub, ok := m.(*types.SubmitTx)
	if !ok {
		return
	}
	s.n++
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], sub.Tx.Seq)
	binary.BigEndian.PutUint64(b[8:], uint64(sub.Tx.Submitted))
	s.h.Write(b[:])
}

// runFlow drives one 500 tx/s Flow for 2 simulated seconds into a sink and
// returns the transaction count and the stream digest.
func runFlow(seed uint64) (int, string) {
	types.RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond), Seed: 1})
	sink := &flowSink{h: sha256.New()}
	net.AddNode(0, sink)
	net.AddNode(100, NewFlow(FlowConfig{
		Self:     100,
		Target:   0,
		Rate:     500,
		TxSize:   types.DefaultTxSize,
		Epoch:    simnet.Epoch,
		GenStart: simnet.Epoch,
		GenStop:  simnet.Epoch.Add(2 * time.Second),
		Seed:     seed,
	}))
	net.Start()
	net.RunUntilIdle(0)
	return sink.n, hex.EncodeToString(sink.h.Sum(nil))
}

// TestFlowArrivalStream pins the seed-1 arrival stream. The scale
// experiment's output is built on it, so any change to the Poisson draws
// or the per-transaction stream consumption shows up here first.
func TestFlowArrivalStream(t *testing.T) {
	const (
		wantN   = 1012
		wantSum = "03d48836f11009cc1f4fff86ba7c8717a9fa9d66837d6dc57319a77c834454e2"
	)
	n, sum := runFlow(1)
	if n != wantN || sum != wantSum {
		t.Fatalf("seed-1 stream: %d txs, sha256 %s; want %d, %s", n, sum, wantN, wantSum)
	}
	if n2, sum2 := runFlow(1); n2 != n || sum2 != sum {
		t.Fatalf("same-seed runs differ: %d/%s vs %d/%s", n, sum, n2, sum2)
	}
}
