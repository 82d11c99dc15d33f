package harness

import (
	"time"

	"predis/internal/stats"
)

// latfloorSpecs builds the measurement grid for LatencyFloor: for one
// network profile, block mode and streaming commit run over the same
// offered loads on the same P-PBFT deployment. Streaming uses an
// in-flight PBFT window so ordering never gates on the previous commit;
// block mode is the classic single-slot protocol every other experiment
// measures.
func latfloorSpecs(o Options, wan bool, stream bool, loads []float64, duration time.Duration) []Deployment {
	specs := make([]Deployment, len(loads))
	for i, load := range loads {
		d := o.deployment()
		d.System, d.WAN, d.Offered, d.Stop, d.Stream = SysPPBFT, wan, load, duration, stream
		// A moderate production batching interval (Fabric defaults to
		// hundreds of ms; 50 ms is generous). Block mode's latency
		// floor includes it — transactions wait for the seal tick —
		// while streaming seals per transaction and never sees it.
		// Both modes run the identical configuration.
		d.BundleInterval = 50 * time.Millisecond
		if stream {
			d.Pipeline = 16
		}
		specs[i] = d
	}
	return specs
}

// LatencyFloor contrasts block-granularity commit with streaming commit
// (seal→order→distribute→execute pipelined at bundle granularity) on the
// same P-PBFT deployment, on LAN and WAN, across offered loads. It
// reports mean/p50/p99 confirmed-transaction latency per mode, the
// throughput-parity series, and the speculation-waste counter (stream
// proposals retracted by view changes or fork abandonment). This is the
// experiment behind the streaming-commit claim: the latency floor drops
// from "wait for the next block" to "wait for the next bundle" while
// committed throughput stays equal.
func LatencyFloor(o Options) ([]*stats.Table, error) {
	loads := []float64{500, 1000, 2000, 4000}
	duration := 8 * time.Second
	if o.Quick {
		loads = []float64{1000, 2000}
		duration = 4 * time.Second
	}

	// Grid order: LAN block, LAN stream, WAN block, WAN stream — each a
	// row of len(loads) points.
	grid := [][]Deployment{
		latfloorSpecs(o, false, false, loads, duration),
		latfloorSpecs(o, false, true, loads, duration),
		latfloorSpecs(o, true, false, loads, duration),
		latfloorSpecs(o, true, true, loads, duration),
	}
	flat := make([]Deployment, 0, 4*len(loads))
	for _, row := range grid {
		flat = append(flat, row...)
	}
	results, err := runPoints(o, flat)
	if err != nil {
		return nil, err
	}
	rows := [][]PointResult{
		results[0*len(loads) : 1*len(loads)],
		results[1*len(loads) : 2*len(loads)],
		results[2*len(loads) : 3*len(loads)],
		results[3*len(loads) : 4*len(loads)],
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	latTable := func(name string, block, stream []PointResult) *stats.Table {
		t := &stats.Table{
			Title: "Latency floor (" + name + ", P-PBFT nc=4): confirmed " +
				"latency ms vs offered tx/s — block vs streaming commit",
			XLabel: "offered tx/s",
		}
		series := []struct {
			name string
			row  []PointResult
			pick func(stats.Summary) time.Duration
		}{
			{"block mean", block, func(s stats.Summary) time.Duration { return s.Mean }},
			{"stream mean", stream, func(s stats.Summary) time.Duration { return s.Mean }},
			{"block p50", block, func(s stats.Summary) time.Duration { return s.P50 }},
			{"stream p50", stream, func(s stats.Summary) time.Duration { return s.P50 }},
			{"block p99", block, func(s stats.Summary) time.Duration { return s.P99 }},
			{"stream p99", stream, func(s stats.Summary) time.Duration { return s.P99 }},
		}
		for _, sp := range series {
			s := &stats.Series{Name: sp.name}
			for i, load := range loads {
				s.Add(load, ms(sp.pick(sp.row[i].Latency)))
			}
			t.Series = append(t.Series, s)
		}
		return t
	}

	parity := &stats.Table{
		Title: "Latency floor: committed throughput parity and speculation " +
			"waste (retracted stream proposals) vs offered tx/s",
		XLabel: "offered tx/s",
	}
	paritySeries := []struct {
		name string
		row  []PointResult
		pick func(PointResult) float64
	}{
		{"LAN block tx/s", rows[0], func(r PointResult) float64 { return r.Throughput }},
		{"LAN stream tx/s", rows[1], func(r PointResult) float64 { return r.Throughput }},
		{"WAN block tx/s", rows[2], func(r PointResult) float64 { return r.Throughput }},
		{"WAN stream tx/s", rows[3], func(r PointResult) float64 { return r.Throughput }},
		{"LAN stream retractions", rows[1], func(r PointResult) float64 { return float64(r.SpecEvictions) }},
		{"WAN stream retractions", rows[3], func(r PointResult) float64 { return float64(r.SpecEvictions) }},
	}
	for _, sp := range paritySeries {
		s := &stats.Series{Name: sp.name}
		for i, load := range loads {
			s.Add(load, sp.pick(sp.row[i]))
		}
		parity.Series = append(parity.Series, s)
	}

	return []*stats.Table{
		latTable("LAN", rows[0], rows[1]),
		latTable("WAN", rows[2], rows[3]),
		parity,
	}, nil
}
