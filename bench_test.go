// Package predis's root test file hosts the benchmark harness required by
// the reproduction: one testing.B benchmark per figure in the paper's
// evaluation (§V). Each benchmark regenerates its figure's series through
// internal/harness in quick mode and prints the tables, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation at laptop scale. cmd/predis-bench runs
// the same experiments at full scale.
package predis

import (
	"testing"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/harness"
	"predis/internal/microblock"
	"predis/internal/stats"
)

// runExperiment executes one registered experiment in quick mode and logs
// its tables.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(harness.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Logf("\n%s", t.Render())
			}
			reportHeadline(b, id, tables)
		}
	}
}

// reportHeadline extracts one scalar per figure as a benchmark metric so
// regressions show up in plain benchstat output.
func reportHeadline(b *testing.B, id string, tables []*stats.Table) {
	if len(tables) == 0 || len(tables[0].Series) == 0 {
		return
	}
	best := 0.0
	for _, s := range tables[0].Series {
		for _, p := range s.Points {
			if p.Y > best {
				best = p.Y
			}
		}
	}
	b.ReportMetric(best, "peak_"+id)
}

// BenchmarkFig4aPBFTBundleBatch regenerates Fig. 4(a): PBFT vs P-PBFT
// throughput-latency with bundle/batch size variants (WAN, nc = 4).
func BenchmarkFig4aPBFTBundleBatch(b *testing.B) { runExperiment(b, "fig4a") }

// BenchmarkFig4bHotStuffBundleBatch regenerates Fig. 4(b): HotStuff vs
// P-HS with bundle/batch size variants.
func BenchmarkFig4bHotStuffBundleBatch(b *testing.B) { runExperiment(b, "fig4b") }

// BenchmarkFig4cPBFTScalability regenerates Fig. 4(c): PBFT vs P-PBFT
// saturated throughput at nc ∈ {4, 8, 16}.
func BenchmarkFig4cPBFTScalability(b *testing.B) { runExperiment(b, "fig4c") }

// BenchmarkFig4dHotStuffScalability regenerates Fig. 4(d): HotStuff vs
// P-HS saturated throughput at nc ∈ {4, 8, 16}.
func BenchmarkFig4dHotStuffScalability(b *testing.B) { runExperiment(b, "fig4d") }

// BenchmarkFig5WAN regenerates Fig. 5(a,b): Predis vs Narwhal vs Stratus
// in the WAN environment.
func BenchmarkFig5WAN(b *testing.B) { runExperiment(b, "fig5wan") }

// BenchmarkFig5LAN regenerates Fig. 5(c,d): the same comparison in the
// emulated LAN.
func BenchmarkFig5LAN(b *testing.B) { runExperiment(b, "fig5lan") }

// BenchmarkFig6Faults regenerates Fig. 6: Predis throughput/latency with
// silent and partial-sender Byzantine nodes at nc = 8.
func BenchmarkFig6Faults(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Throughput regenerates Fig. 7: consensus throughput under
// star vs Multi-Zone distribution as full nodes grow.
func BenchmarkFig7Throughput(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Propagation regenerates Fig. 8: block propagation latency
// for star, random(FEG), and Multi-Zone topologies across block sizes.
func BenchmarkFig8Propagation(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkProposalSize quantifies the §III-F / §V-A block-size claim:
// a Predis block stays Θ(n_c) while id-list proposals grow linearly. The
// reported metrics are the proposal bytes at n_c = 80 mapping 50,000
// transactions (paper: ≤2.5 KB vs ~30 KB).
func BenchmarkProposalSize(b *testing.B) {
	const nc = 80
	cuts := make([]core.Cut, nc)
	for i := range cuts {
		// 50,000 txs / 50 per bundle / 80 chains ≈ 13 bundles per chain.
		cuts[i] = core.Cut{Height: 13, Head: crypto.HashBytes([]byte{byte(i)})}
	}
	blk := &core.PredisBlock{Height: 1, Cuts: cuts, Sig: make([]byte, crypto.SignatureSize)}

	ids := make([]crypto.Hash, 1000) // both systems' default id cap
	for i := range ids {
		ids[i] = crypto.HashBytes([]byte{byte(i), byte(i >> 8)})
	}
	idList := &microblock.IDList{Height: 1, IDs: ids}

	var predisSize, idListSize int
	for i := 0; i < b.N; i++ {
		predisSize = blk.WireSize()
		idListSize = idList.WireSize()
	}
	b.ReportMetric(float64(predisSize), "predis_block_B")
	b.ReportMetric(float64(idListSize), "idlist_B")
	if predisSize >= idListSize {
		b.Fatalf("Predis block (%d B) should be far below the id list (%d B)", predisSize, idListSize)
	}
}

// BenchmarkAblationCertificates isolates the paper's key design choice:
// replacing certificate collection (RBC/PAB) with chained tip lists.
// It measures P-HS (no certificates) against Narwhal-style RBC and
// Stratus-style PAB on the identical engine and network, reporting mean
// client latency for each.
func BenchmarkAblationCertificates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		type variant struct {
			name string
			sys  harness.System
		}
		for _, v := range []variant{
			{"predis_tiplist_ms", harness.SysPHS},
			{"narwhal_rbc_ms", harness.SysNarwhal},
			{"stratus_pab_ms", harness.SysStratus},
		} {
			res, err := harness.RunPoint(harness.Deployment{
				System:  v.sys,
				NC:      4,
				Offered: 4000,
				Stop:    3e9, // 3s
				Seed:    int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Latency.Mean)/1e6, v.name)
			}
		}
	}
}
