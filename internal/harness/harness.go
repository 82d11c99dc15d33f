// Package harness defines the reproducible experiments behind every figure
// in the paper's evaluation (§V). Each experiment builds a simulated
// deployment, runs it in virtual time, and reports the same series the
// paper plots; bench_test.go and cmd/predis-bench expose them.
package harness

import (
	"fmt"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/workload"
)

// System names the data production strategies under test, using the
// paper's labels.
type System string

// Systems.
const (
	SysPBFT     System = "PBFT"
	SysPPBFT    System = "P-PBFT"
	SysHotStuff System = "HotStuff"
	SysPHS      System = "P-HS"
	SysNarwhal  System = "Narwhal"
	SysStratus  System = "Stratus"
)

// modeEngine maps a system to its node configuration.
func modeEngine(sys System) (node.Mode, node.EngineKind, error) {
	switch sys {
	case SysPBFT:
		return node.ModeBaseline, node.EnginePBFT, nil
	case SysPPBFT:
		return node.ModePredis, node.EnginePBFT, nil
	case SysHotStuff:
		return node.ModeBaseline, node.EngineHotStuff, nil
	case SysPHS:
		return node.ModePredis, node.EngineHotStuff, nil
	case SysNarwhal:
		return node.ModeNarwhal, node.EngineHotStuff, nil
	case SysStratus:
		return node.ModeStratus, node.EngineHotStuff, nil
	default:
		return 0, 0, fmt.Errorf("harness: unknown system %q", sys)
	}
}

// PointResult is the outcome of one measurement.
type PointResult struct {
	Throughput       float64 // consensus-side committed tx/s
	ClientThroughput float64 // client-confirmed tx/s
	Latency          stats.Summary
	Blocks           int
	ViewOrTimeouts   uint64
	// SpecEvictions counts stream-mode proposal retractions across all
	// nodes — the speculation-waste signal: each one is a block that was
	// speculatively announced (and, under Multi-Zone, speculatively
	// distributed) but did not commit as proposed. Always 0 in block mode.
	SpecEvictions uint64
}

// RunPoint builds d, runs it to Stop, and measures the window after the
// first quarter. Unset, the point's own defaults apply: client IDs from
// 1000 and simulated keys seeded Seed+100.
func RunPoint(d Deployment) (PointResult, error) {
	if d.ClientBase == 0 {
		d.ClientBase = 1000
	}
	d = d.withDefaults()
	if d.Suite == nil {
		d.Suite = crypto.NewSimSuite(d.NC, uint64(d.Seed)+100)
	}
	col := workload.NewCollector(simnet.Epoch.Add(d.Stop/4), simnet.Epoch.Add(d.Stop))
	d.Collector = col
	b, err := Build(d)
	if err != nil {
		return PointResult{}, err
	}
	b.Run(d.Stop)

	_, _, _, blocks := col.Counts()
	res := PointResult{
		Throughput:       col.Throughput(),
		ClientThroughput: col.ClientThroughput(),
		Latency:          col.Latency(),
		Blocks:           blocks,
		SpecEvictions:    b.Evictions,
	}
	// Engine diagnostics from node 0.
	if e, ok := b.Nodes[0].Engine().(interface{ Stats() (uint64, uint64) }); ok {
		_, res.ViewOrTimeouts = e.Stats()
	}
	return res, nil
}

// fanOut evaluates fn(0..n-1) over up to o.Parallel goroutines (see
// env.Parallel) and merges the results back in index order, so output
// is identical to a sequential loop regardless of scheduling. On error
// it reports the failure with the lowest index, matching what a
// sequential loop would have surfaced first. With o.Replay set the
// points run sequentially instead: each folds its deliveries into the
// one trace, and only a fixed order keeps the digest deterministic.
func fanOut[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	parallel := o.parallel()
	if o.Replay != nil {
		parallel = 1
	}
	out := make([]T, n)
	errs := make([]error, n)
	env.Parallel(n, parallel, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPoints measures independent deployments through fanOut, returning
// results in spec order.
func runPoints(o Options, specs []Deployment) ([]PointResult, error) {
	return fanOut(o, len(specs), func(i int) (PointResult, error) {
		return RunPoint(specs[i])
	})
}

// LoadSweep runs base across offered loads, one point after the other,
// and returns (throughput, latency-ms) pairs — one line of a
// throughput-latency figure.
func LoadSweep(base Deployment, loads []float64) (*stats.Series, *stats.Series, error) {
	tl := &stats.Series{Name: string(base.System)}
	lat := &stats.Series{Name: string(base.System)}
	for _, load := range loads {
		d := base
		d.Offered = load
		res, err := RunPoint(d)
		if err != nil {
			return nil, nil, err
		}
		ms := float64(res.Latency.Mean) / float64(time.Millisecond)
		tl.Add(load, res.Throughput)
		lat.Add(res.Throughput, ms)
	}
	return tl, lat, nil
}
