// Multizone: a two-zone Multi-Zone network over P-PBFT. Full nodes join
// one by one, run the subscription protocol (Algorithm 1), elect relayers,
// exchange erasure-coded stripes, and reconstruct every committed block
// from the tiny Predis block plus their local bundle chains. The program
// prints the relayer topology that emerged and each zone's block
// completion progress.
//
//	go run ./examples/multizone
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/harness"
	"predis/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multizone:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		zones    = 2
		perZone  = 5
		duration = 6 * time.Second
	)
	var committed int
	dep, err := harness.Build(harness.Deployment{
		System:      harness.SysPPBFT,
		Seed:        3,
		Suite:       crypto.NewEd25519Suite(4, 55),
		ViewTimeout: time.Second,
		NoReplies:   true,
		// Full nodes: zone z gets IDs 100+z*100+k; they join 80 ms apart.
		Zones: zones, FullNodes: zones * perZone,
		JoinStep: 80 * time.Millisecond,
		Alive:    250 * time.Millisecond,
		Clients:  1, ClientBase: 900, Offered: 600,
		Start: time.Duration(zones*perZone)*80*time.Millisecond + 100*time.Millisecond,
		Stop:  duration,
		OnCommit: func(node int, height uint64, txs int, at time.Duration) {
			if node == 0 {
				committed += txs
			}
		},
		OnFullBlock: func(id wire.NodeID, blk *core.PredisBlock, txs int, at time.Duration) {
			if id%100 == perZone-1 { // each zone's last joiner narrates
				fmt.Printf("  zone %d ordinary node %d rebuilt block %d (%d txs) at t=%v\n",
					id/100-1, id, blk.Height, txs, at.Round(10*time.Millisecond))
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("multizone: %d zones × %d full nodes over %d consensus nodes\n", zones, perZone, 4)
	dep.Run(duration + 2*time.Second)

	fmt.Printf("\nconsensus committed %d txs; relayer topology that emerged:\n", committed)
	for z := 0; z < zones; z++ {
		fmt.Printf("  zone %d:\n", z)
		for k := 0; k < perZone; k++ {
			fn := dep.Fulls[z*perZone+k]
			stripes, bundles, blocks := fn.Stats()
			role := "ordinary"
			if fn.IsRelayer() {
				role = fmt.Sprintf("relayer%v", fn.RelayedStripes())
			}
			fmt.Printf("    node %-3d %-12s stripes=%-5d bundles=%-4d blocks=%d\n",
				fn.ID(), role, stripes, bundles, blocks)
			if blocks == 0 {
				return fmt.Errorf("node %d completed no blocks", fn.ID())
			}
		}
	}
	return nil
}
