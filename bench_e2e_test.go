// End-to-end wall-clock benchmarks over whole experiments, complementing
// the kernel micro-benchmarks in bench_kernels_test.go: the perf
// trajectory of this repository is tracked at both granularities.
// BENCH_e2e.json (emitted by `make bench-e2e` via tools/benchjson)
// records the per-op numbers; the "cpus" metric records how much
// hardware parallelism was available when they were taken.
package predis

import (
	"runtime"
	"testing"

	"predis/internal/harness"
)

// benchE2E runs one whole experiment per iteration.
func benchE2E(b *testing.B, id string) {
	b.Helper()
	e, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := harness.Options{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkE2EQuickstartQuick times the full quickstart pipeline
// (P-PBFT consensus + Multi-Zone distribution) in quick mode.
func BenchmarkE2EQuickstartQuick(b *testing.B) { benchE2E(b, "quickstart") }

// BenchmarkE2EFig8Quick times the Fig. 8 experiment (Multi-Zone vs
// star vs random topologies under sweeping full-node counts) in quick
// mode — the most stripe-/erasure-heavy experiment in the registry.
func BenchmarkE2EFig8Quick(b *testing.B) { benchE2E(b, "fig8") }
