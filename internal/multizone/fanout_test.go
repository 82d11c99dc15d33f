package multizone

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// sendLog is a bare env.Context that records sends instead of delivering
// them, so a handler method can be driven in isolation.
type sendLog struct {
	record bool
	sent   []wire.NodeID
	msgs   []wire.Message
	n      int
}

func (c *sendLog) ID() wire.NodeID                       { return 200 }
func (c *sendLog) Now() time.Time                        { return simnet.Epoch }
func (c *sendLog) After(time.Duration, func()) env.Timer { return nil }
func (c *sendLog) Rand() *rand.Rand                      { return nil }
func (c *sendLog) Logf(string, ...any)                   {}
func (c *sendLog) Send(to wire.NodeID, m wire.Message) {
	c.n++
	if c.record {
		c.sent = append(c.sent, to)
		c.msgs = append(c.msgs, m)
	}
}

func bareFullNode(t *testing.T) (*FullNode, *sendLog) {
	t.Helper()
	striper, _ := NewStriper(4, 1)
	fn, err := NewFullNode(FullNodeConfig{
		Self: 200, NC: 4, F: 1, Striper: striper, Signer: crypto.NewSimSuite(4, 3).Signer(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &sendLog{record: true}
	fn.ctx = ctx
	return fn, ctx
}

// TestForwardStripeFanOut: a stripe goes to its index's subscribers in ID
// order, skipping the sender, and a subscription change is seen by the
// next stripe.
func TestForwardStripeFanOut(t *testing.T) {
	fn, ctx := bareFullNode(t)
	fn.consensusDir[2] = true // we receive stripe 2, so we may serve it
	for _, id := range []wire.NodeID{52, 50, 51} {
		fn.onSubscribe(id, &Subscribe{Stripes: []uint8{2}})
	}
	ctx.sent = nil
	m := &StripeMsg{Index: 2}
	fn.forwardStripe(51, m)
	if !slices.Equal(ctx.sent, []wire.NodeID{50, 52}) {
		t.Fatalf("fan-out %v, want [50 52]", ctx.sent)
	}
	fn.forwardStripe(51, &StripeMsg{Index: 1})
	if len(ctx.sent) != 2 {
		t.Fatalf("stripe without subscribers was forwarded: %v", ctx.sent)
	}
	fn.onUnsubscribe(50, &Unsubscribe{Stripes: []uint8{2}})
	fn.onSubscribe(49, &Subscribe{Stripes: []uint8{2}})
	ctx.sent = nil
	fn.forwardStripe(200, m)
	if !slices.Equal(ctx.sent, []wire.NodeID{49, 51, 52}) {
		t.Fatalf("fan-out after resubscription %v, want [49 51 52]", ctx.sent)
	}
}

// TestForwardStripeZeroAlloc: with stable subscribers, forwarding a stripe
// allocates nothing.
func TestForwardStripeZeroAlloc(t *testing.T) {
	fn, ctx := bareFullNode(t)
	fn.consensusDir[2] = true
	for _, id := range []wire.NodeID{52, 50, 51, 53} {
		fn.onSubscribe(id, &Subscribe{Stripes: []uint8{2}})
	}
	ctx.record, ctx.n = false, 0
	m := &StripeMsg{Index: 2}
	fn.forwardStripe(51, m)
	if n := testing.AllocsPerRun(100, func() { fn.forwardStripe(51, m) }); n != 0 {
		t.Fatalf("forwardStripe allocates %.1f objects, want 0", n)
	}
	// One explicit call, AllocsPerRun's warm-up and its 100 runs, three
	// subscribers each (the sender is skipped).
	if want := 3 * 102; ctx.n != want {
		t.Fatalf("sent %d stripes, want %d", ctx.n, want)
	}
}

// TestPartialTopMatchesScan runs a randomized history of partial-bundle
// inserts, unreconstructable drops, completions, confirmations and sweeps,
// and checks after every step that the per-producer in-flight maximum the
// speculative pre-fetch reads equals a full scan of f.partials — and that
// prefetchSpec requests exactly the ranges the scan implies.
func TestPartialTopMatchesScan(t *testing.T) {
	fn, ctx := bareFullNode(t)
	rng := rand.New(rand.NewSource(5))
	scan := func() map[wire.NodeID]uint64 {
		top := make(map[wire.NodeID]uint64)
		for _, p := range fn.partials {
			if h := p.header.Height; h > top[p.header.Producer] {
				top[p.header.Producer] = h
			}
		}
		return top
	}
	var hashes []crypto.Hash
	confirmed := make([]uint64, 4)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			hdr := core.BundleHeader{Producer: wire.NodeID(rng.Intn(4)), Height: 1 + uint64(rng.Intn(60)), TxCount: uint32(step)}
			h := hdr.Hash()
			if fn.partials[h] == nil {
				fn.addPartial(h, &partialBundle{header: hdr})
				hashes = append(hashes, h)
			}
		case op < 6 && len(hashes) > 0:
			i := rng.Intn(len(hashes))
			if p := fn.partials[hashes[i]]; p != nil {
				fn.dropPartial(hashes[i], p) // the unreconstructable path
			}
		case op < 8 && len(hashes) > 0:
			if p := fn.partials[hashes[rng.Intn(len(hashes))]]; p != nil {
				p.done = true
			}
		case op == 8:
			producer := rng.Intn(4)
			confirmed[producer] += uint64(rng.Intn(6))
			fn.mp.MarkConfirmed(wire.NodeID(producer), confirmed[producer])
		default:
			fn.sweepDataPlane()
		}
		want := scan()
		for producer := wire.NodeID(0); producer < 4; producer++ {
			if got := fn.partialTop[producer]; got != want[producer] {
				t.Fatalf("step %d: partialTop[%d] = %d, scan = %d", step, producer, got, want[producer])
			}
		}
		if len(fn.partialTop) != len(want) {
			t.Fatalf("step %d: partialTop holds %d producers, scan %d", step, len(fn.partialTop), len(want))
		}

		blk := &core.PredisBlock{Height: 1, Cuts: make([]core.Cut, 4)}
		for i := range blk.Cuts {
			blk.Cuts[i].Height = uint64(rng.Intn(70))
		}
		ctx.sent, ctx.msgs = nil, nil
		fn.prefetchSpec(7, blk)
		var wantReqs []core.BundleRequest
		for i, c := range blk.Cuts {
			if have := want[wire.NodeID(i)]; c.Height > have {
				wantReqs = append(wantReqs, core.BundleRequest{Producer: wire.NodeID(i), From: have + 1, To: c.Height})
			}
		}
		if len(ctx.msgs) != len(wantReqs) {
			t.Fatalf("step %d: prefetch sent %d requests, want %d", step, len(ctx.msgs), len(wantReqs))
		}
		for i, m := range ctx.msgs {
			if req := m.(*core.BundleRequest); *req != wantReqs[i] || ctx.sent[i] != 7 {
				t.Fatalf("step %d: request %d = %+v to %d, want %+v to 7", step, i, *req, ctx.sent[i], wantReqs[i])
			}
		}
	}
}
