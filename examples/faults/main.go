// Faults: four failure scenarios from the paper, end to end.
//
// Scenario 1 — forking attack (§III-E): a malicious producer signs two
// conflicting bundles at the same height. The first honest node to see
// both multicasts the evidence and every honest node bans the producer;
// later bundles from it are rejected and leaders stop cutting its chain.
//
// Scenario 2 — silent leader (§III-D): the view-0 leader neither produces
// bundles nor proposes. Followers' bundle timers expire, a view change
// elects the next leader, and the system resumes committing.
//
// Scenario 3 — relayer crash (§IV-C/IV-F): a zone's relayer fail-stops
// under a declarative fault schedule. Heartbeats expire, the consensus
// distributors promote a replacement for the orphaned stripes, and when
// the crashed node restarts it re-runs the subscription bootstrap and
// catches up the blocks it missed. The example prints the timeline.
//
// Scenario 4 — corrupting relayer (§IV-B): the network forges every
// stripe a relayer sends during an attack window. Subscribers reject the
// stripes on Merkle-proof verification, refetch the damaged bundles from
// alternate holders, and quarantine the repeat offender behind a TTL
// blacklist; the zone keeps completing blocks throughout, and once the
// TTL lapses the (honest) node is re-admitted.
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/faults"
	"predis/internal/harness"
	"predis/internal/types"
	"predis/internal/wire"
)

func main() {
	if err := forkingAttack(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := silentLeader(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := relayerCrash(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := corruptingRelayer(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
}

// forkingAttack drives the core data structures directly: it forges an
// equivocation and shows detection, evidence verification, and banning.
func forkingAttack() error {
	fmt.Println("scenario 1: forking attack (conflicting bundles)")
	const nc, f = 4, 1
	suite := crypto.NewEd25519Suite(nc, 11)
	mp, err := core.NewMempool(core.Params{
		NC: nc, F: f, BundleSize: 10, Signer: suite.Signer(1),
	})
	if err != nil {
		return err
	}

	// The malicious producer (node 0) signs two different bundles that
	// both extend the genesis of its chain.
	mkTxs := func(base uint64) []*types.Transaction {
		out := make([]*types.Transaction, 3)
		for i := range out {
			out[i] = types.NewTransaction(99, base+uint64(i), 512, 0)
		}
		return out
	}
	tips := make(core.TipList, nc)
	tips[0] = 1
	a := core.PackBundle(suite.Signer(0), 0, nil, mkTxs(1), tips)
	b := core.PackBundle(suite.Signer(0), 0, nil, mkTxs(100), tips)

	if res, _, _, err := mp.AddBundle(a, true); err != nil || res != core.Added {
		return fmt.Errorf("first bundle: res=%v err=%v", res, err)
	}
	fmt.Printf("  honest node accepted bundle %s at height 1\n", a.Header.Hash().Short())

	res, evidence, _, err := mp.AddBundle(b, true)
	if err != nil || res != core.Conflicting {
		return fmt.Errorf("conflict not detected: res=%v err=%v", res, err)
	}
	fmt.Printf("  conflicting bundle %s detected → evidence built\n", b.Header.Hash().Short())
	if !evidence.Verify(suite.Signer(2)) {
		return fmt.Errorf("evidence failed verification at a third party")
	}
	fmt.Println("  any node can verify the evidence; producer 0 is banned")
	if !mp.Banned(0) {
		return fmt.Errorf("producer not banned")
	}
	next := core.PackBundle(suite.Signer(0), 0, &a.Header, mkTxs(200), tips)
	if _, _, _, err := mp.AddBundle(next, true); err == nil {
		return fmt.Errorf("banned producer's bundle accepted")
	}
	fmt.Println("  follow-up bundle from the banned producer rejected ✓")
	return nil
}

// silentLeader runs a live network whose first leader is silent.
func silentLeader() error {
	fmt.Println("scenario 2: silent leader → view change")
	const (
		nc       = 4
		duration = 6 * time.Second
	)
	commits := make([]int, nc)
	dep, err := harness.Build(harness.Deployment{
		System:      harness.SysPPBFT,
		Seed:        5,
		Suite:       crypto.NewEd25519Suite(nc, 12),
		BundleSize:  25,
		ViewTimeout: time.Second,
		Faults:      map[wire.NodeID]core.FaultMode{0: core.FaultSilent}, // the view-0 leader says nothing
		Clients:     1, ClientBase: 300, Offered: 300,
		Targets: []wire.NodeID{1, 2, 3}, // honest nodes only
		Stop:    duration,
		OnCommit: func(node int, height uint64, txs int, at time.Duration) {
			commits[node] += txs
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("  node 0 leads view 0 but is silent; followers must replace it…")
	dep.Run(duration + time.Second)

	type viewer interface{ View() uint64 }
	v := dep.Nodes[1].Engine().(viewer).View()
	fmt.Printf("  node 1 is now in view %d (0 would mean no view change)\n", v)
	if v == 0 {
		return fmt.Errorf("no view change happened")
	}
	for i := 1; i < nc; i++ {
		fmt.Printf("  node %d committed %d txs\n", i, commits[i])
		if commits[i] == 0 {
			return fmt.Errorf("node %d made no progress after the view change", i)
		}
	}
	fmt.Println("  liveness restored under the next leader ✓")
	return nil
}

// zoneUnderFault is the deployment scenarios 3 and 4 share: one zone of
// six full nodes over a P-PBFT group, 300 tx/s for 12 simulated seconds,
// with one scripted fault.
func zoneUnderFault(seed int64, fault faults.Action) (*harness.Built, error) {
	return harness.Build(harness.Deployment{
		System:      harness.SysPPBFT,
		Seed:        seed,
		Suite:       crypto.NewSimSuite(4, 31),
		BundleSize:  25,
		ViewTimeout: time.Second,
		Zones:       1, FullNodes: 6,
		Alive:    200 * time.Millisecond,
		Schedule: []faults.Action{fault},
		Clients:  1, ClientBase: 400, Offered: 300,
		Start: 300 * time.Millisecond,
		Stop:  12 * time.Second,
	})
}

// relayerCrash runs one Multi-Zone zone over a P-PBFT group, crashes the
// zone's first relayer through a scripted fault window, and narrates the
// recovery: heartbeat expiry, stripe re-election, re-subscription after
// restart, and chain catch-up.
func relayerCrash() error {
	fmt.Println("scenario 3: relayer crash → re-election → catch-up")
	const duration = 12 * time.Second
	crashAt, restartAt := 4*time.Second, 7*time.Second
	victim := wire.NodeID(100) // first joiner: claims stripes, relays
	dep, err := zoneUnderFault(21, faults.CrashWindow{Node: victim, From: crashAt, To: restartAt})
	if err != nil {
		return err
	}
	net, fulls := dep.Net, dep.Fulls

	// Timeline probe: every second, report who relays and where the
	// victim's chain head is relative to the zone.
	relayers := func() []wire.NodeID {
		var ids []wire.NodeID
		for _, fn := range fulls {
			if fn.IsRelayer() {
				ids = append(ids, fn.ID())
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for s := 1; s <= int(duration/time.Second); s++ {
		at := time.Duration(s) * time.Second
		net.At(at, func() {
			var live uint64
			for _, fn := range fulls {
				if fn.ID() != victim && fn.LastHeight() > live {
					live = fn.LastHeight()
				}
			}
			v := fulls[0]
			state := "up"
			switch {
			case net.Crashed(victim):
				state = "CRASHED"
			case v.CatchingUp():
				state = "catching up"
			}
			fmt.Printf("  t=%2.0fs  relayers=%v  victim head=%3d (%s)  live head=%3d\n",
				at.Seconds(), relayers(), v.LastHeight(), state, live)
		})
	}

	fmt.Printf("  victim %d is the zone's first relayer; crash window [%v, %v)\n",
		victim, crashAt, restartAt)
	dep.Run(duration)

	fmt.Println("  fault schedule trace:")
	fmt.Print(indent(dep.Faults.TraceString(), "    "))

	var live uint64
	for _, fn := range fulls {
		if fn.ID() != victim && fn.LastHeight() > live {
			live = fn.LastHeight()
		}
	}
	v := fulls[0]
	if v.LastHeight()+3 < live {
		return fmt.Errorf("victim stuck at height %d, live head %d", v.LastHeight(), live)
	}
	if v.CatchingUp() {
		return fmt.Errorf("catch-up still in flight at end of run")
	}
	fmt.Printf("  restarted relayer back at head %d (live %d), relayer=%v ✓\n",
		v.LastHeight(), live, v.IsRelayer())
	return nil
}

// corruptingRelayer shows the Byzantine data-plane hardening (§IV-B):
// reject on verification, refetch from alternates, quarantine the
// offender, keep completing blocks.
func corruptingRelayer() error {
	fmt.Println("scenario 4: corrupting relayer → reject → refetch → quarantine")
	attackFrom, attackTo := 4*time.Second, 7*time.Second
	evil := wire.NodeID(100) // first joiner: claims stripes, so its forgeries fan out widest
	dep, err := zoneUnderFault(23, faults.CorruptStripe{Node: evil, From: attackFrom, To: attackTo})
	if err != nil {
		return err
	}

	fmt.Printf("  node %d's outgoing stripes are forged during [%v, %v)\n",
		evil, attackFrom, attackTo)
	dep.Run(12 * time.Second)

	fmt.Println("  fault schedule trace:")
	fmt.Print(indent(dep.Faults.TraceString(), "    "))

	var rejected, refetches, quarantines uint64
	for _, fn := range dep.Fulls {
		rj, rf, q, _ := fn.ByzStats()
		rejected += rj
		refetches += rf
		quarantines += q
	}
	if rejected == 0 || refetches == 0 || quarantines == 0 {
		return fmt.Errorf("attack went unpunished: rejected=%d refetches=%d quarantines=%d",
			rejected, refetches, quarantines)
	}
	var low, high uint64 = ^uint64(0), 0
	for _, fn := range dep.Fulls {
		h := fn.LastHeight()
		if h < low {
			low = h
		}
		if h > high {
			high = h
		}
	}
	fmt.Printf("  rejected=%d refetched=%d quarantined=%d; zone heads span [%d, %d] ✓\n",
		rejected, refetches, quarantines, low, high)
	return nil
}

// indent prefixes every line of s.
func indent(s, pre string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += pre + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += pre + s[start:] + "\n"
	}
	return out
}
