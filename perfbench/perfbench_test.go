package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"predis/internal/compute"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/harness"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

func TestPercentilesMonotoneAndNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 9999, 10000, 25000} {
		sample := make([]time.Duration, n)
		for i := range sample {
			sample[i] = time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		}
		tl := percentiles(sample)
		if tl.P50 > tl.P99 {
			t.Fatalf("n=%d: p50 %v > p99 %v", n, tl.P50, tl.P99)
		}
		if n < minP999Sample {
			if tl.P999 != 0 {
				t.Fatalf("n=%d: p99.9 reported with fewer than ten samples beyond it", n)
			}
			continue
		}
		if tl.P99 > tl.P999 {
			t.Fatalf("n=%d: p99 %v > p99.9 %v", n, tl.P99, tl.P999)
		}
		beyond := 0
		for _, d := range sample {
			if d > tl.P999 {
				beyond++
			}
		}
		if beyond < 10 && n > minP999Sample {
			t.Fatalf("n=%d: only %d samples beyond p99.9", n, beyond)
		}
	}
	// Nearest rank: p50 of 1..10 is the 5th value, p99 the 10th.
	var s []time.Duration
	for i := 10; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	if tl := percentiles(s); tl.P50 != 5 || tl.P99 != 10 {
		t.Fatalf("nearest rank of 1..10: p50=%d p99=%d, want 5 and 10", tl.P50, tl.P99)
	}
}

func root(b byte) crypto.Hash { return crypto.Hash{b} }

// newTestBook returns a book with two hosts and two full nodes whose
// accounting window spans the whole test.
func newTestBook() *book {
	return newBook(2, 2, simnet.Epoch, simnet.Epoch.Add(time.Hour), simnet.Epoch.Add(time.Hour))
}

func commit(b *book, host int, h uint64, txs int, r crypto.Hash, at time.Duration) {
	b.hostExecuted(host, exec.Result{Height: h, StateRoot: r})
	b.hostCommitted(host, h, txs, simnet.Epoch.Add(at))
}

func deliver(b *book, slot int, h uint64, txs int, r crypto.Hash, at time.Duration) {
	b.fullExecuted(slot, exec.Result{Height: h, StateRoot: r})
	b.fullCompleted(slot, h, txs, simnet.Epoch.Add(at))
}

func TestHostDisagreementAborts(t *testing.T) {
	b := newTestBook()
	commit(b, 0, 1, 10, root(1), time.Second)
	commit(b, 1, 1, 10, root(1), time.Second)
	if b.err() != nil {
		t.Fatalf("agreeing hosts flagged: %v", b.err())
	}
	commit(b, 0, 2, 10, root(2), 2*time.Second)
	commit(b, 1, 2, 10, root(3), 2*time.Second)
	if b.err() == nil || !strings.Contains(b.err().Error(), "disagree at height 2") {
		t.Fatalf("root disagreement not caught: %v", b.err())
	}
	b = newTestBook()
	commit(b, 0, 1, 10, root(1), time.Second)
	commit(b, 1, 1, 11, root(1), time.Second)
	if b.err() == nil {
		t.Fatal("transaction-count disagreement not caught")
	}
}

func TestFullNodeFailureAccounting(t *testing.T) {
	b := newTestBook()
	for h := uint64(1); h <= 3; h++ {
		commit(b, 0, h, 5, root(byte(h)), time.Duration(h)*time.Second)
	}
	// Full node 0 delivers every height, one of them with a wrong root;
	// full node 1 misses height 3.
	deliver(b, 0, 1, 5, root(1), 1100*time.Millisecond)
	deliver(b, 0, 2, 5, root(9), 2100*time.Millisecond)
	deliver(b, 0, 3, 5, root(3), 3100*time.Millisecond)
	deliver(b, 1, 1, 5, root(1), 1200*time.Millisecond)
	deliver(b, 1, 2, 5, root(2), 2200*time.Millisecond)

	a := b.accountFull(simnet.Epoch.Add(3*time.Second + settle))
	if a.pairs != 6 || a.missing != 1 || a.wrongRoot != 1 || a.wrongTxs != 0 {
		t.Fatalf("pairs/missing/wrongRoot/wrongTxs = %d/%d/%d/%d, want 6/1/1/0",
			a.pairs, a.missing, a.wrongRoot, a.wrongTxs)
	}
	if len(a.lag) != 4 || a.lag[0] != 100*time.Millisecond || a.lag[3] != 200*time.Millisecond {
		t.Fatalf("lag over delivered pairs = %v", a.lag)
	}
	// A height committed within settle of the end is not yet owed.
	if a := b.accountFull(simnet.Epoch.Add(3*time.Second + settle/2)); a.pairs != 4 {
		t.Fatalf("pairs before the last height settled = %d, want 4", a.pairs)
	}
}

func TestPendingTransactionCountsAsFailed(t *testing.T) {
	b := newTestBook()
	submit := func(seq uint64) {
		tx := types.NewTransaction(clientID(0), seq, types.DefaultTxSize, time.Second)
		b.observe(clientID(0), 0, &types.SubmitTx{Tx: tx}, simnet.Epoch.Add(time.Second))
	}
	reply := func(from wire.NodeID, seqs ...uint64) {
		b.observe(from, clientID(0), &types.BlockReply{Replica: from, Seqs: seqs}, simnet.Epoch.Add(2*time.Second))
	}
	submit(1)
	submit(2)
	reply(0, 1, 2)
	reply(1, 1)    // tx 1 has f+1 = 2 distinct replies
	reply(0, 2)    // a repeated replier does not count twice
	reply(1, 3, 1) // tx 3 was never submitted; tx 1 is already done
	if b.confirmed != 1 || len(b.latencies) != 1 || b.latencies[0] != time.Second {
		t.Fatalf("confirmed %d with latencies %v, want one at 1s", b.confirmed, b.latencies)
	}
	if b.unknownAck != 1 {
		t.Fatalf("replies for unsubmitted transactions = %d, want 1", b.unknownAck)
	}
	r := &rung{submitted: 2, pending: 1}
	if got := r.unconfirmedShare(); got != 0.5 {
		t.Fatalf("unconfirmed share = %v, want 0.5", got)
	}
}

func TestVerifyFlagsDivergentRuns(t *testing.T) {
	run := func(traced bool, hash string, p99 float64) *runOut {
		return &runOut{Traced: traced, Hash: hash, Attempted: 10,
			Virtual: map[string]float64{"confirm_p99_ms": p99}, Host: map[string]float64{}}
	}
	ok := &result{untraced: []*runOut{run(false, "a", 1), run(false, "a", 1)}, traced: run(true, "a", 1)}
	ok.verify()
	if len(ok.checks) != 0 {
		t.Fatalf("identical runs flagged: %v", ok.checks)
	}
	bad := &result{untraced: []*runOut{run(false, "a", 1), run(false, "a", 2)}, traced: run(true, "b", 1)}
	bad.verify()
	if len(bad.checks) != 2 {
		t.Fatalf("want a hash and a metric mismatch, got %v", bad.checks)
	}
}

// probe records what its context offers and whether it was restarted.
type probe struct {
	pool      *compute.Pool
	restarted int
	fired     int
}

func (p *probe) Start(ctx env.Context) {
	p.pool = compute.PoolOf(ctx)
	ctx.After(10*time.Millisecond, func() { p.fired++ })
}
func (p *probe) Receive(wire.NodeID, wire.Message) {}
func (p *probe) OnRestart()                        { p.restarted++ }

func TestSpannedForwardsRestartAndComputePool(t *testing.T) {
	pool := compute.NewPool(1)
	defer pool.Close()
	net := simnet.New(simnet.Config{Seed: 1, Compute: pool})
	spans := newSpanTable()
	inner := &probe{}
	net.AddNode(1, &spanned{inner: inner, role: roleHost, spans: spans})
	// A handler without a restart hook.
	other := &env.HandlerFunc{OnStart: func(ctx env.Context) { ctx.After(10*time.Millisecond, func() {}) }}
	net.AddNode(2, &spanned{inner: other, role: roleClient, spans: spans})
	net.Start()
	net.Run(20 * time.Millisecond)
	if inner.pool != pool {
		t.Fatal("wrapped context does not forward ComputePool")
	}
	if inner.fired != 1 || spans.calls[layerTimersHost] != 2 || spans.calls[layerWorkload] != 2 {
		t.Fatalf("timer fired %d times; host/client timer spans %d/%d, want 1 and 2/2",
			inner.fired, spans.calls[layerTimersHost], spans.calls[layerWorkload])
	}
	net.Crash(1)
	net.Crash(2)
	net.Restart(1)
	net.Restart(2)
	net.Run(40 * time.Millisecond)
	if inner.restarted != 1 {
		t.Fatalf("OnRestart reached the inner handler %d times, want 1", inner.restarted)
	}
	if spans.genLag != 0 {
		t.Fatalf("client timer lateness %v on the virtual clock", spans.genLag)
	}
}

// TestSpannedIsPassive runs a short leader-crash deployment wrapped and
// unwrapped: the replay hash and the numbers must not move.
func TestSpannedIsPassive(t *testing.T) {
	w := &Workload{
		Name: "short-crash", Engine: node.EnginePBFT,
		BundleInterval: 20 * time.Millisecond, ViewTimeout: time.Second,
		Rates: []float64{400}, Gen: 2 * time.Second, Drain: time.Second,
		CrashFrom: 800 * time.Millisecond, CrashTo: 1500 * time.Millisecond,
		ResubmitAfter: 500 * time.Millisecond,
	}
	runOnce := func(traced bool) (string, *deployment) {
		replay := harness.NewReplayTrace()
		d, err := build(w, w.Rates[0], 3, traced, replay)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return replay.Sum(), d
	}
	plainHash, pd := runOnce(false)
	tracedHash, td := runOnce(true)
	if plainHash != tracedHash {
		t.Fatalf("replay hash moved under tracing: %s vs %s", plainHash, tracedHash)
	}
	if pd.book.confirmed == 0 || pd.book.confirmed != td.book.confirmed {
		t.Fatalf("confirmations %d untraced vs %d traced", pd.book.confirmed, td.book.confirmed)
	}
	if td.spans.total() == 0 || td.spans.calls[layerPBFT] == 0 {
		t.Fatal("traced run recorded no pbft spans")
	}
	if td.book.firstServed.IsZero() || td.book.firstServed != pd.book.firstServed {
		t.Fatalf("service after the crash resumed at %v untraced, %v traced",
			pd.book.firstServed, td.book.firstServed)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists
// and workloads in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, names)
	}
	same := func(kind string, listed []entry, want []named) {
		if len(listed) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(want))
		}
		for i, m := range want {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Fatalf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
