package harness

import (
	"fmt"
	"time"

	"predis/internal/core"
	"predis/internal/faults"
	"predis/internal/stats"
	"predis/internal/wire"
)

// recoveryBucket is the throughput timeline's resolution.
const recoveryBucket = 500 * time.Millisecond

// recoveryDeployment is the full Multi-Zone deployment the crash and
// attack scenarios run on: a P-PBFT consensus group with two striped
// zones of incrementally joining full nodes, cross-zone backups, and a
// fault schedule the scenario supplies. stop is the quick-mode run length.
func recoveryDeployment(o Options, stop time.Duration) Deployment {
	d := o.deployment()
	d.System, d.ViewTimeout, d.Exec = SysPPBFT, time.Second, ExecParallel
	d.Zones, d.FullNodes, d.Alive = 2, 10, 200*time.Millisecond
	d.Offered, d.Stop = 6000, 16*time.Second
	if o.Quick {
		d.FullNodes, d.Offered, d.Stop = 8, 3000, stop
	}
	return d
}

// crashWindow is when the scenarios' crash or attack window opens and
// closes.
func crashWindow(o Options) (from, to time.Duration) {
	if o.Quick {
		return 4 * time.Second, 6 * time.Second
	}
	return 6 * time.Second, 9 * time.Second
}

// recoveryResult is one run's outcome.
type recoveryResult struct {
	// buckets holds committed tx/s per bucket, observed at a consensus
	// node that never crashes.
	buckets []float64
	// trace is the injector's applied-fault log (deterministic per seed).
	trace string
	// victimHead / liveHead compare the restarted node's chain head with
	// the healthiest live peer at the end of the run (consensus commit
	// heights for the leader scenario, zone block heights for the relayer
	// scenario).
	victimHead, liveHead uint64
	// catchingUp reports whether the victim's catch-up was still in
	// flight when the run ended (relayer scenario only).
	catchingUp bool
	// Byzantine-hardening counters, summed across all full nodes. On a
	// benign schedule (crashes, loss) every one of these is zero:
	// verification never fails without an adversary.
	rejected, refetches, quarantines, rewires uint64
	// undecodable counts frames the network dropped because their body
	// would not decode (garbage-wire attacks; zero on benign runs).
	undecodable uint64
	// equivocations sums proven leader equivocations across the
	// consensus group (zero on benign runs).
	equivocations uint64
	// sink holds the run's observability artifacts.
	sink Sink
}

// runRecovery runs d under its fault schedule and reports the bucketed
// throughput plus chain-head positions. consensus selects the scenario:
// true watches consensus node 0 (the PBFT view-0 leader, forcing a view
// change and later a replica catch-up); false watches the first-joined
// full node of zone 0 (a relayer, forcing stripe re-subscription and zone
// catch-up).
func runRecovery(d Deployment, consensus bool) (recoveryResult, error) {
	d = d.withDefaults()
	nBuckets := int(d.Stop/recoveryBucket) + 1
	buckets := make([]float64, nBuckets)
	record := func(at time.Duration, txs int) {
		if i := int(at / recoveryBucket); i >= 0 && i < nBuckets {
			buckets[i] += float64(txs)
		}
	}
	// In the leader scenario the bucket recorder is the last consensus
	// node (which never crashes); in the relayer scenario it is a healthy
	// full node in the victim's zone, so the timeline shows the zone's
	// completion rate through heartbeat expiry, relayer re-election, and
	// catch-up. Per-node last-commit heights feed the leader scenario's
	// head comparison.
	victim, observer := wire.NodeID(100), wire.NodeID(101) // zone 0's first two joiners
	if consensus {
		victim = 0
	}
	lastCommit := make([]uint64, d.NC)
	d.OnCommit = func(i int, height uint64, txs int, at time.Duration) {
		lastCommit[i] = max(lastCommit[i], height)
		if consensus && i == d.NC-1 {
			record(at, txs)
		}
	}
	d.OnFullBlock = func(id wire.NodeID, blk *core.PredisBlock, txs int, at time.Duration) {
		if !consensus && id == observer {
			record(at, txs)
		}
	}
	b, err := Build(d)
	if err != nil {
		return recoveryResult{}, err
	}
	b.Run(d.Stop)

	res := recoveryResult{buckets: buckets, trace: b.Faults.TraceString(), sink: b.Sink}
	for _, fn := range b.Fulls {
		rj, rf, q, rw := fn.ByzStats()
		res.rejected += rj
		res.refetches += rf
		res.quarantines += q
		res.rewires += rw
	}
	res.undecodable = b.Net.Dropped().Undecodable
	for _, n := range b.Nodes {
		// Both engine kinds expose proven-equivocation counts; the
		// interface stays narrow so node.Engine needs no new method.
		if eq, ok := n.Engine().(interface{ Equivocations() uint64 }); ok {
			res.equivocations += eq.Equivocations()
		}
	}
	if consensus {
		res.victimHead = lastCommit[0]
		for _, h := range lastCommit[1:] {
			res.liveHead = max(res.liveHead, h)
		}
		return res, nil
	}
	for _, fn := range b.Fulls {
		if fn.ID() == victim {
			res.victimHead = fn.LastHeight()
			res.catchingUp = fn.CatchingUp()
			continue
		}
		res.liveHead = max(res.liveHead, fn.LastHeight())
	}
	return res, nil
}

// bucketSeries renders a bucketed commit count as tx/s per bucket end,
// up to stop.
func bucketSeries(name string, buckets []float64, stop time.Duration) *stats.Series {
	ts := &stats.Series{Name: name}
	for i, v := range buckets {
		end := time.Duration(i+1) * recoveryBucket
		if end > stop {
			break
		}
		ts.Add(end.Seconds(), v/recoveryBucket.Seconds())
	}
	return ts
}

// recoveryMetrics reduces a bucketed throughput series to the headline
// numbers: the pre-crash baseline rate, the dip floor during the outage,
// the dip depth as a percent of baseline, and the time from restart until
// throughput first regains 90% of baseline (-1 when it never does).
func recoveryMetrics(buckets []float64, bucket, warm, crashFrom, crashTo time.Duration) (baseline, floor, dipPct, ttrMS float64) {
	rate := func(i int) float64 { return buckets[i] / bucket.Seconds() }
	var sum float64
	n := 0
	for i := range buckets {
		start := time.Duration(i) * bucket
		end := start + bucket
		if start >= warm && end <= crashFrom {
			sum += rate(i)
			n++
		}
	}
	if n > 0 {
		baseline = sum / float64(n)
	}
	floor = baseline
	for i := range buckets {
		start := time.Duration(i) * bucket
		if start >= crashFrom && start < crashTo+2*bucket && rate(i) < floor {
			floor = rate(i)
		}
	}
	if baseline > 0 {
		dipPct = 100 * (1 - floor/baseline)
	}
	ttrMS = -1
	for i := range buckets {
		start := time.Duration(i) * bucket
		end := start + bucket
		if start >= crashTo && end <= time.Duration(len(buckets))*bucket &&
			rate(i) >= 0.9*baseline {
			ttrMS = float64(end-crashTo) / float64(time.Millisecond)
			break
		}
	}
	return baseline, floor, dipPct, ttrMS
}

// Recovery is the crash-recovery experiment (ISSUE 1 tentpole 4): the
// Multi-Zone deployment under a scripted relayer crash and, separately, a
// consensus-leader crash. It reports the committed-throughput timeline
// around each outage and a summary of dip depth, time-to-recover, and the
// restarted node's final chain head versus the live head. Both victims
// must catch back up to the live head (small slack for blocks committed
// in the final instants); a stuck victim is an error, not a data point.
func Recovery(o Options) ([]*stats.Table, error) {
	crashFrom, crashTo := crashWindow(o)
	d := recoveryDeployment(o, 10*time.Second)
	d.Observe = true
	warm := d.joinWindow() + 500*time.Millisecond

	timeline := &stats.Table{
		Title:  "Recovery: committed throughput (tx/s) per 500ms bucket around the crash window",
		XLabel: "t(s)",
	}
	summary := &stats.Table{
		Title: "Recovery summary (rows: 1=baseline tx/s, 2=dip floor tx/s, " +
			"3=dip depth %, 4=time-to-recover ms, 5=victim head, 6=live head, " +
			"7=stripes rejected, 8=refetches, 9=quarantines, 10=rewires — " +
			"rows 7-10 are the Byzantine-hardening counters and must be zero " +
			"on these benign crash scenarios)",
		XLabel: "row",
	}
	scenarios := []struct {
		name      string
		consensus bool
	}{
		{"relayer-crash", false},
		{"leader-crash", true},
	}
	stageTables := make([]*stats.Table, 0, len(scenarios))
	for _, sc := range scenarios {
		// Scenarios run sequentially: folding both into one replay trace
		// is deterministic.
		victim := wire.NodeID(100) // first joiner of zone 0: claims stripes, relays
		if sc.consensus {
			victim = 0 // PBFT view-0 leader
		}
		d.Schedule = []faults.Action{faults.CrashWindow{Node: victim, From: crashFrom, To: crashTo}}
		res, err := runRecovery(d, sc.consensus)
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", sc.name, err)
		}
		if res.liveHead == 0 {
			return nil, fmt.Errorf("recovery %s: cluster made no progress", sc.name)
		}
		// Hard acceptance: the restarted node reaches the live head.
		const slack = 4
		if res.victimHead+slack < res.liveHead {
			return nil, fmt.Errorf("recovery %s: victim stuck at height %d, live head %d",
				sc.name, res.victimHead, res.liveHead)
		}
		if res.catchingUp {
			return nil, fmt.Errorf("recovery %s: catch-up still in flight at end of run", sc.name)
		}
		timeline.Series = append(timeline.Series, bucketSeries(sc.name, res.buckets, d.Stop))

		baseline, floor, dip, ttr := recoveryMetrics(res.buckets, recoveryBucket, warm, crashFrom, crashTo)
		sum := &stats.Series{Name: sc.name}
		sum.Add(1, baseline)
		sum.Add(2, floor)
		sum.Add(3, dip)
		sum.Add(4, ttr)
		sum.Add(5, float64(res.victimHead))
		sum.Add(6, float64(res.liveHead))
		sum.Add(7, float64(res.rejected))
		sum.Add(8, float64(res.refetches))
		sum.Add(9, float64(res.quarantines))
		sum.Add(10, float64(res.rewires))
		summary.Series = append(summary.Series, sum)
		if n := res.rejected + res.refetches + res.quarantines + res.rewires +
			res.undecodable + res.equivocations; n != 0 {
			return nil, fmt.Errorf("recovery %s: benign crash moved Byzantine counters (%d)",
				sc.name, n)
		}

		// Per-stage latency breakdown: dissemination stages absorb the
		// outage (stripe_distributed/fullnode_delivered tails stretch while
		// the victim is down) without moving the consensus-side stages.
		st := res.sink.Trace.StageTable()
		st.Title = sc.name + " — " + st.Title
		stageTables = append(stageTables, st)
		if o.Obs != nil {
			*o.Obs = res.sink
		}
	}
	return append([]*stats.Table{timeline, summary}, stageTables...), nil
}
