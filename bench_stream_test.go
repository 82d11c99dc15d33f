// Wall-clock benchmarks for streaming commit (bench_stream_test.go →
// BENCH_stream.json via `make bench-stream`), complementing the virtual-
// time latency contrast the latfloor experiment reports: these rows track
// what the streaming machinery itself costs the simulator host. Each
// point also reports the virtual-time confirmed-latency mean, so the
// committed JSON records the block-vs-stream latency cut alongside the
// wall-clock numbers it was paid for with.
package predis

import (
	"runtime"
	"testing"
	"time"

	"predis/internal/harness"
)

// benchStreamPoint runs one P-PBFT measurement point per iteration —
// the latfloor LAN configuration at 2000 tx/s — in block or streaming
// mode.
func benchStreamPoint(b *testing.B, stream bool) {
	b.Helper()
	spec := harness.Deployment{
		System:         harness.SysPPBFT,
		NC:             4,
		Offered:        2000,
		Stop:           2 * time.Second,
		Seed:           1,
		BundleInterval: 50 * time.Millisecond,
	}
	if stream {
		spec.Stream = true
		spec.Pipeline = 16
	}
	var mean time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunPoint(spec)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Latency.Mean
	}
	b.ReportMetric(float64(mean)/float64(time.Millisecond), "confirmed-mean-ms")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkStreamPoint contrasts block and streaming commit on the same
// deployment: the mode dimension is the virtual-time latency cut.
func BenchmarkStreamPoint(b *testing.B) {
	for _, mode := range []string{"block", "stream"} {
		b.Run("mode="+mode, func(b *testing.B) {
			benchStreamPoint(b, mode == "stream")
		})
	}
}

// BenchmarkStreamLatfloor runs the whole quick latfloor grid per
// iteration — the experiment CI and quick_results.txt regenerate — so
// its wall-clock cost is tracked like the other experiment benchmarks.
func BenchmarkStreamLatfloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.LatencyFloor(harness.Options{
			Quick: true, Seed: 1, Parallel: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkStreamQuickstart runs the streaming quickstart — the full
// Multi-Zone pipeline with speculative distribution and spec-buffer
// settlement — per iteration.
func BenchmarkStreamQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Quickstart(harness.Options{
			Quick: true, Seed: 1, Stream: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}
