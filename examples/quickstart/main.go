// Quickstart: a four-node Predis-on-HotStuff (P-HS) network running in the
// deterministic simulator. Clients offer 1,000 tx/s for three simulated
// seconds; the program prints committed blocks and the final
// throughput/latency summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/crypto"
	"predis/internal/harness"
	"predis/internal/simnet"
	"predis/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const duration = 3 * time.Second
	collector := workload.NewCollector(simnet.Epoch, simnet.Epoch.Add(duration))
	// P-HS on a 100 Mbps network with the paper's LAN emulation (25 ms
	// links).
	dep, err := harness.Build(harness.Deployment{
		System: harness.SysPHS,
		Seed:   1,
		// Real ed25519 keys: the examples run the production crypto path.
		Suite:       crypto.NewEd25519Suite(4, 2024),
		ViewTimeout: time.Second,
		Clients:     1, ClientBase: 100, Offered: 1000,
		Stop:      duration,
		Collector: collector,
		OnCommit: func(node int, height uint64, txs int, at time.Duration) {
			if node == 0 { // one replica narrates
				fmt.Printf("  block %-3d committed with %3d txs at t=%v\n",
					height, txs, at.Round(time.Millisecond))
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("quickstart: 4-node P-HS, 1000 tx/s offered for 3s (simulated)")
	dep.Run(duration + time.Second) // drain in-flight work

	sub, confirmed, committed, blocks := collector.Counts()
	lat := collector.Latency()
	fmt.Printf("\nsubmitted=%d confirmed=%d committed=%d blocks=%d\n",
		sub, confirmed, committed, blocks)
	fmt.Printf("throughput=%.0f tx/s  latency: mean=%v p50=%v p99=%v\n",
		collector.Throughput(), lat.Mean.Round(time.Millisecond),
		lat.P50.Round(time.Millisecond), lat.P99.Round(time.Millisecond))
	if confirmed == 0 {
		return fmt.Errorf("no transactions confirmed")
	}
	return nil
}
