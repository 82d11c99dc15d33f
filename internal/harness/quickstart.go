package harness

import (
	"time"

	"predis/internal/stats"
)

// Quickstart runs the full Predis data-flow pipeline once, end to end:
// a P-HS consensus group (Predis on HotStuff) with a Multi-Zone
// full-node attachment, open-loop clients, and — when Options.Obs is
// set — lifecycle tracing plus NIC/queue sampling. It is the smallest
// deployment in which all seven pipeline stages fire (submit,
// bundle_sealed, block_proposed, prepare_commit, executed,
// stripe_distributed, fullnode_delivered), and it renders the per-stage
// latency breakdown
// the paper's dataflow argument is about: consensus-side stages stay
// flat while dissemination rides on pre-distribution.
func Quickstart(o Options) ([]*stats.Table, error) {
	d := o.deployment()
	d.System, d.Stream, d.Observe, d.Exec = SysPHS, o.Stream, true, ExecParallel
	// Two zones of three full nodes joining incrementally, with one
	// cross-zone backup each (the Fig. 7 deployment shape, scaled down).
	d.Zones, d.FullNodes = 2, 6
	d.Offered, d.Stop = 4000, d.joinWindow()+6*time.Second
	if o.Quick {
		d.Offered, d.Stop = 2000, d.joinWindow()+3*time.Second
	}
	col := d.measured()
	d.Collector = col
	b, err := Build(d)
	if err != nil {
		return nil, err
	}
	b.Run(d.Stop)
	if o.Obs != nil {
		*o.Obs = b.Sink
	}

	// Headline numbers plus the per-stage latency breakdown.
	lat := col.Latency()
	title := "Quickstart: P-HS + Multi-Zone (rows: 1=committed tx/s, " +
		"2=confirmed tx/s, 3=mean latency ms, 4=p99 latency ms, 5=blocks, " +
		"6=p50 latency ms, 7=p90 latency ms"
	if o.Stream {
		title += ", 8=spec finalized, 9=spec wasted"
	}
	summary := &stats.Table{Title: title + ")", XLabel: "row"}
	name := "P-HS+MZ"
	if o.Stream {
		name = "P-HS+MZ stream"
	}
	sum := &stats.Series{Name: name}
	_, _, _, blocks := col.Counts()
	sum.Add(1, col.Throughput())
	sum.Add(2, col.ClientThroughput())
	sum.Add(3, float64(lat.Mean)/float64(time.Millisecond))
	sum.Add(4, float64(lat.P99)/float64(time.Millisecond))
	sum.Add(5, float64(blocks))
	sum.Add(6, float64(lat.P50)/float64(time.Millisecond))
	sum.Add(7, float64(lat.P90)/float64(time.Millisecond))
	if o.Stream {
		var hits, waste uint64
		for _, fn := range b.Fulls {
			h, w := fn.SpecStats()
			hits += h
			waste += w
		}
		sum.Add(8, float64(hits))
		sum.Add(9, float64(waste))
	}
	summary.Series = append(summary.Series, sum)

	return []*stats.Table{summary, b.Sink.Trace.StageTable()}, nil
}
