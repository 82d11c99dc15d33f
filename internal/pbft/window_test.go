package pbft

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// checkWindow fails unless the ordered window equals the sorted keys of
// the instance map.
func checkWindow(t *testing.T, e *Engine, step string) {
	t.Helper()
	keys := make([]uint64, 0, len(e.instances))
	for seq := range e.instances {
		keys = append(keys, seq)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, e.seqs) {
		t.Fatalf("%s: window %v, instance keys %v", step, e.seqs, keys)
	}
}

// startedEngine hosts one engine of a four-replica group on a simnet so
// it has a live context; nothing else runs.
func startedEngine(t *testing.T, self wire.NodeID, app consensus.Application) *Engine {
	t.Helper()
	registerPayload()
	RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 3})
	e, err := New(Config{
		N: 4, Self: self, App: app, Signer: crypto.NewSimSuite(4, 5).Signer(int(self)),
		Pipeline: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(self, e)
	net.Start()
	return e
}

// TestWindowTracksInstances drives one replica through a randomized mix
// of every path that inserts or deletes an instance — leader proposals,
// signed votes for near and far-ahead seqs (what a Byzantine replica can
// create), execution, supersession, view changes and FastForward — and
// checks after each step that the ordered window equals the sorted keys
// of the instance map.
func TestWindowTracksInstances(t *testing.T) {
	app := &echoApp{max: 1 << 30, pendOnce: map[uint64]bool{}}
	e := startedEngine(t, 1, app)
	suite := crypto.NewSimSuite(4, 5)
	rng := rand.New(rand.NewSource(11))
	vote := func(replica int, seq uint64, digest crypto.Hash) {
		p := &Prepare{View: e.view, Seq: seq, Digest: digest, Replica: wire.NodeID(replica)}
		p.Sig = suite.Signer(replica).Sign(p.signDigest())
		e.Receive(wire.NodeID(replica), p)
	}
	checkWindow(t, e, "start")
	for step := 0; step < 3000; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 3:
			what = "vote"
			seq := e.lastExec + 1 + uint64(rng.Intn(20))
			vote(rng.Intn(4), seq, crypto.HashBytes([]byte{byte(rng.Intn(3))}))
		case op == 3:
			what = "far-ahead vote"
			vote(rng.Intn(4), e.lastExec+1000+uint64(rng.Intn(1<<20)), crypto.HashBytes([]byte("far")))
		case op == 4:
			what = "pre-prepare"
			// A leader-signed proposal supersedes a votes-only slot with
			// another digest (the delete-and-reinsert path).
			seq := e.lastExec + 1 + uint64(rng.Intn(4))
			payload := &payloadMsg{N: seq}
			pp := &PrePrepare{View: e.view, Seq: seq, Digest: digestOf(payload), Payload: payload, Leader: e.Leader()}
			pp.Sig = suite.Signer(int(e.Leader())).Sign(pp.signDigest())
			e.Receive(e.Leader(), pp)
		case op == 5:
			what = "execute"
			if inst := e.instances[e.lastExec+1]; inst != nil && inst.payload != nil {
				inst.validated = true
				inst.commitQuorum = true
				e.tryExecute()
			}
		case op == 6:
			what = "commit quorum"
			// Committed slots survive view changes.
			if len(e.seqs) > 0 {
				e.instances[e.seqs[rng.Intn(len(e.seqs))]].commitQuorum = true
			}
		case op == 7:
			what = "view change"
			e.adoptView(e.view + 1)
		case op == 8:
			what = "fast-forward"
			e.FastForward(e.lastExec+uint64(rng.Intn(6)), &payloadMsg{N: e.lastExec})
		default:
			what = "poke"
			e.Poke()
		}
		checkWindow(t, e, what)
	}
}

// reentrantApp re-enters Poke from OnCommit, the way Predis pokes its
// engine when a commit frees mempool work, and inserts a pending slot
// first so the nested call has something the outer loop never saw.
type reentrantApp struct {
	e          *Engine
	payloads   map[uint64]*payloadMsg
	pendingSeq uint64 // always ErrPending
	validated  map[uint64]int
	commits    []uint64
}

func (a *reentrantApp) BuildProposal(uint64, wire.Message) (wire.Message, crypto.Hash, bool) {
	return nil, crypto.ZeroHash, false
}

func (a *reentrantApp) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	a.validated[height]++
	if height == a.pendingSeq {
		return crypto.ZeroHash, consensus.ErrPending
	}
	p, ok := payload.(*payloadMsg)
	if !ok {
		return crypto.ZeroHash, errors.New("bad payload")
	}
	return digestOf(p), nil
}

func (a *reentrantApp) OnCommit(height uint64, payload wire.Message) {
	a.commits = append(a.commits, height)
	if height != 1 {
		return
	}
	p := a.payloads[a.pendingSeq]
	inst := a.e.getInstance(a.pendingSeq, a.e.view, digestOf(p))
	inst.payload = p
	inst.pendingValid = true
	a.e.Poke()
}

// TestPokeReentrantSnapshot: Poke walks the window as it stood when the
// loop started. Seq 1 completes its quorum inside the outer loop, and
// its commit re-enters Poke after inserting pending seq 3. The nested
// Poke validates seqs 2 and 3; the outer loop, resuming at seq 2, must
// not reach seq 3 — a walk over the live window would validate it a
// second time.
func TestPokeReentrantSnapshot(t *testing.T) {
	app := &reentrantApp{payloads: map[uint64]*payloadMsg{}, pendingSeq: 3, validated: map[uint64]int{}}
	e := startedEngine(t, 1, app)
	app.e = e
	for seq := uint64(1); seq <= 3; seq++ {
		app.payloads[seq] = &payloadMsg{N: seq}
	}
	for seq := uint64(1); seq <= 2; seq++ {
		inst := e.getInstance(seq, 0, digestOf(app.payloads[seq]))
		inst.payload = app.payloads[seq]
		inst.pendingValid = true
	}
	// Seq 1 already holds two foreign prepares and commits: this replica's
	// own prepare completes both quorums during validation.
	inst := e.instances[1]
	for _, r := range []wire.NodeID{0, 2} {
		inst.prepares[r] = struct{}{}
		inst.commits[r] = struct{}{}
	}
	e.Poke()
	if !slices.Equal(app.commits, []uint64{1}) {
		t.Fatalf("commits = %v, want [1]", app.commits)
	}
	if app.validated[1] != 1 || app.validated[2] != 1 {
		t.Fatalf("validations = %v, want seqs 1 and 2 once each", app.validated)
	}
	if app.validated[3] != 1 {
		t.Fatalf("seq 3 validated %d times, want once (by the nested Poke only)", app.validated[3])
	}
	checkWindow(t, e, "after re-entrant poke")
}

// TestPokeZeroAlloc: Poke over a full pipeline window with nothing to
// validate, execute or propose allocates nothing.
func TestPokeZeroAlloc(t *testing.T) {
	app := &echoApp{pendOnce: map[uint64]bool{}}
	e := startedEngine(t, 0, app) // the view-0 leader, pipeline full
	for seq := uint64(1); seq <= uint64(e.cfg.Pipeline); seq++ {
		p := &payloadMsg{N: seq}
		inst := e.getInstance(seq, 0, digestOf(p))
		inst.payload = p
		inst.validated = true
	}
	e.Poke()
	if n := testing.AllocsPerRun(100, e.Poke); n != 0 {
		t.Fatalf("Poke over a full window allocates %.1f objects, want 0", n)
	}
}

// TestVoteDigestMatchesEncoder pins the stack-array preimage against the
// wire-encoder form it replaced, for every vote kind.
func TestVoteDigestMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for kind := kindPrePrepare; kind <= kindStatus; kind++ {
		for i := 0; i < 20; i++ {
			view, seq := rng.Uint64(), rng.Uint64()
			var d crypto.Hash
			rng.Read(d[:])
			e := wire.NewEncoder(1 + 8 + 8 + 32)
			e.U8(byte(kind))
			e.U64(view)
			e.U64(seq)
			e.Bytes32(d)
			if got, want := voteDigest(kind, view, seq, d), crypto.HashBytes(e.Bytes()); got != want {
				t.Fatalf("kind %d view %d seq %d: digest %s, encoder form %s", kind, view, seq, got.Short(), want.Short())
			}
		}
	}
}

var digestSink crypto.Hash

func TestVoteDigestZeroAlloc(t *testing.T) {
	d := crypto.HashBytes([]byte("block"))
	if a := testing.AllocsPerRun(100, func() { digestSink = voteDigest(kindCommit, 3, 17, d) }); a != 0 {
		t.Fatalf("voteDigest: %v allocs/op, want 0", a)
	}
}
