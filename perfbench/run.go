package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"predis/internal/harness"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
)

// runOut is what one run of a workload reports. Virtual holds numbers
// on the simulated clock, which a seed fixes exactly; Host holds what
// the run cost the host, which varies from run to run.
type runOut struct {
	Traced     bool               `json:"traced"`
	Hash       string             `json:"hash"`
	Deliveries uint64             `json:"deliveries"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Virtual    map[string]float64 `json:"virtual"`
	Host       map[string]float64 `json:"host"`
	Ladder     []ladderRung       `json:"ladder"`
	Checks     []string           `json:"checks,omitempty"`
}

// ladderRung is one offered rate's outcome, for the report.
type ladderRung struct {
	Rate        float64 `json:"rate"`
	P99ms       float64 `json:"p99_ms"`
	Unconfirmed float64 `json:"unconfirmed_share"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rung is what one deployment at one offered rate produced. The
// deployment itself is dropped once the rung is reduced, so one run
// holds a single network at a time.
type rung struct {
	rate      float64
	sim       float64 // simulated seconds
	clock     hostClock
	spans     *spanTable
	submitted int
	pending   int
	lat       tail
	full      fullAccount
}

func (r *rung) unconfirmedShare() float64 {
	return share(float64(r.pending), float64(r.submitted))
}

// runWorkload builds and runs every rung of w, checks what it can
// check, and reduces the outcome to metrics. budget bounds host time.
func runWorkload(w *Workload, seed int64, traced bool, budget time.Duration) (*runOut, error) {
	replay := harness.NewReplayTrace()
	out := &runOut{Traced: traced, Virtual: map[string]float64{}, Host: map[string]float64{}}
	var rungs []*rung
	spent := time.Duration(0)
	for i, rate := range w.Rates {
		d, err := build(w, rate, seed, traced, replay)
		if err != nil {
			return nil, err
		}
		clock, err := d.run(budget - spent)
		if err != nil {
			return nil, err
		}
		spent += clock.wall
		r := &rung{rate: rate, sim: d.horizon.Seconds(), clock: clock, spans: d.spans}
		for _, c := range d.clients {
			r.submitted += int(c.Submitted())
			r.pending += c.PendingCount()
		}
		r.lat = percentiles(d.book.latencies)
		r.full = d.book.accountFull(simnet.Epoch.Add(d.horizon))
		out.Checks = append(out.Checks, checkRung(d, r, i == w.Ref)...)
		if i == w.Ref {
			refMetrics(out.Virtual, d, r)
		}
		rungs = append(rungs, r)
		out.Ladder = append(out.Ladder, ladderRung{rate, ms(r.lat.P99), r.unconfirmedShare()})
	}
	out.Hash = replay.Sum()
	out.Deliveries = replay.Deliveries()

	v := out.Virtual
	var pairs, failedPairs int
	for _, r := range rungs {
		out.Attempted += r.submitted
		out.Failed += r.pending
		pairs += r.full.pairs
		failedPairs += r.full.missing + r.full.wrongRoot + r.full.wrongTxs
	}
	v["unconfirmed_share"] = share(float64(out.Failed), float64(out.Attempted))
	v["confirmed_share"] = 1 - v["unconfirmed_share"]
	v["fullnode_fail_share"] = share(float64(failedPairs), float64(pairs))
	v["fullnode_delivered_share"] = 1 - v["fullnode_fail_share"]
	if len(rungs) > 1 {
		v["max_tps_at_slo"] = 0
		for _, r := range rungs {
			if r.lat.P99 <= sloP99 && r.unconfirmedShare() <= sloUnconfirmed {
				v["max_tps_at_slo"] = r.rate
			}
		}
	}

	// Host clock, pooled over rungs.
	var wall time.Duration
	var sim float64
	var allocs, bytes uint64
	var gcCPU, cpu float64
	var heapMax uint64
	for _, r := range rungs {
		wall += r.clock.wall
		sim += r.sim
		allocs += r.clock.allocs
		bytes += r.clock.bytes
		gcCPU += r.clock.gcCPU
		cpu += r.clock.cpu
		heapMax = max(heapMax, r.clock.heapMax)
	}
	hm := out.Host
	hm["host_s_per_sim_s"] = wall.Seconds() / sim
	hm["allocs_per_tx"] = share(float64(allocs), float64(out.Attempted))
	hm["peak_rss_mb"] = peakRSSMB()
	hm["runtime.gc_cpu_share"] = share(gcCPU, cpu)
	hm["runtime.alloc_bytes_per_tx"] = share(float64(bytes), float64(out.Attempted))
	hm["runtime.heap_live_peak_mb"] = float64(heapMax) / (1 << 20)
	if traced {
		layerHost(out, rungs, sim, wall)
	}
	return out, nil
}

// checkRung applies the per-rung output checks; each failure is one line.
func checkRung(d *deployment, r *rung, ref bool) []string {
	var bad []string
	b := d.book
	name := fmt.Sprintf("%s@%.0f", d.w.Name, r.rate)
	if b.unknownAck > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d replies for transactions never submitted", name, b.unknownAck))
	}
	// The client's own collector must see what the wire-level rule saw.
	if _, confirmed, _, _ := b.col.Counts(); confirmed != b.confirmed {
		bad = append(bad, fmt.Sprintf("%s: clients confirmed %d, replies confirm %d", name, confirmed, b.confirmed))
	}
	if s := b.col.Latency(); s.P50 != r.lat.P50 || s.P99 != r.lat.P99 {
		bad = append(bad, fmt.Sprintf("%s: client latency p50/p99 %v/%v, replies give %v/%v",
			name, s.P50, s.P99, r.lat.P50, r.lat.P99))
	}
	if ref && r.lat.P999 == 0 {
		bad = append(bad, fmt.Sprintf("%s: %d confirmations, p99.9 needs %d", name, r.lat.N, minP999Sample))
	}
	if r.lat.P50 > r.lat.P99 || (r.lat.P999 != 0 && r.lat.P99 > r.lat.P999) {
		bad = append(bad, fmt.Sprintf("%s: percentiles not monotone: %v %v %v", name, r.lat.P50, r.lat.P99, r.lat.P999))
	}
	if len(b.heights) == 0 {
		bad = append(bad, name+": nothing committed")
	}
	return bad
}

// refMetrics adds the reference rung's numbers on the simulated clock:
// the workload's end-to-end latency and throughput, and the per-layer
// counts and ratios a seed fixes.
func refMetrics(v map[string]float64, d *deployment, r *rung) {
	b, w := d.book, d.w
	window := b.genStop.Sub(b.warm).Seconds()
	v["committed_tps"] = float64(b.obsTxs) / window
	v["confirm_p50_ms"] = ms(r.lat.P50)
	v["confirm_p99_ms"] = ms(r.lat.P99)
	v["confirm_p999_ms"] = ms(r.lat.P999)
	v["confirm_samples"] = float64(r.lat.N)
	v["fullnode_lag_p99_ms"] = ms(stats.Percentile(r.full.lag, 99))
	v["fullnode_lag_mean_ms"] = ms(mean(r.full.lag))
	v["fullnode_missing"] = float64(r.full.missing)
	v["fullnode_wrong_root"] = float64(r.full.wrongRoot)
	v["fullnode_wrong_txs"] = float64(r.full.wrongTxs)
	if w.CrashTo > 0 {
		v["outage_ms"] = ms(b.firstServed.Sub(b.crashAt))
		live := uint64(0)
		for _, h := range b.hostHead[1:] {
			live = max(live, h)
		}
		v["victim_lag_blocks"] = float64(live) - float64(b.hostHead[0])
	}

	sim := r.sim
	txs := float64(r.submitted)
	net := d.net
	v["simnet.events_per_sim_s"] = float64(r.clock.events) / sim
	v["simnet.msgs_per_tx"] = share(float64(net.Sends()), txs)
	v["simnet.bytes_per_tx"] = share(float64(net.BytesSent()), txs)
	v["simnet.drops_per_tx"] = share(float64(net.Dropped().Total()), txs)
	up, _ := net.NICBusy(0)
	v["simnet.leader_uplink_busy_share"] = up.Seconds() / sim
	var fullUp time.Duration
	for _, fn := range d.fulls {
		u, _ := net.NICBusy(fn.ID())
		fullUp = max(fullUp, u)
	}
	v["simnet.fullnode_uplink_busy_max"] = fullUp.Seconds() / sim

	var views, timeouts uint64
	for _, h := range d.hosts {
		if s, ok := h.Node.Engine().(interface{ Stats() (uint64, uint64) }); ok {
			_, n := s.Stats()
			if w.Engine == node.EnginePBFT {
				views = max(views, n)
			} else {
				timeouts = max(timeouts, n)
			}
		}
	}
	v["pbft.view_changes"] = float64(views)
	v["hotstuff.timeouts"] = float64(timeouts)

	v["core.txs_per_block"] = share(float64(b.obsTxs), float64(b.obsBlocks))
	v["core.blocks_per_sim_s"] = float64(b.obsBlocks) / window

	var hits, waste, stripes, blocks uint64
	for _, fn := range d.fulls {
		h, ws := fn.SpecStats()
		hits += h
		waste += ws
		s, _, bl := fn.Stats()
		stripes += s
		blocks += bl
	}
	v["multizone.spec_waste_share"] = share(float64(waste), float64(hits+waste))
	v["multizone.stripes_per_block"] = share(float64(stripes), float64(blocks))

	e := b.execRes
	v["exec.abort_share"] = share(float64(e.Aborted), float64(e.Txs))
	v["exec.mean_level_width"] = e.MeanWidth()
	v["exec.txs_per_block"] = share(float64(e.Txs), float64(e.Blocks))

	var resub uint64
	for _, c := range d.clients {
		resub += c.Resubmitted()
	}
	v["workload.resubmits_per_tx"] = share(float64(resub), txs)

	if d.tracer != nil {
		for _, st := range obs.Stages() {
			durs := d.tracer.StageDurations(st)
			v["stage."+st.String()+".p50_ms"] = ms(stats.Percentile(durs, 50))
			v["stage."+st.String()+".p99_ms"] = ms(stats.Percentile(durs, 99))
		}
	}
}

// layerHost adds the handler-span host numbers of a traced run, pooled
// over rungs.
func layerHost(out *runOut, rungs []*rung, sim float64, wall time.Duration) {
	var tab spanTable
	var inside time.Duration
	for _, r := range rungs {
		s := r.spans
		for l := range tab.wall {
			tab.wall[l] += s.wall[l]
			tab.calls[l] += s.calls[l]
		}
		tab.genLag = max(tab.genLag, s.genLag)
		inside += s.total()
	}
	for l, name := range layerNames {
		out.Host[name+".host_s_per_sim_s"] = tab.wall[l].Seconds() / sim
		out.Virtual[name+".calls_per_tx"] = share(float64(tab.calls[l]), float64(out.Attempted))
	}
	out.Host["simnet.self_s_per_sim_s"] = (wall - inside).Seconds() / sim
	out.Virtual["workload.generator_lag_ms"] = ms(tab.genLag)
	if tab.genLag != 0 {
		out.Checks = append(out.Checks, fmt.Sprintf("client timers ran %v late on the virtual clock", tab.genLag))
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func mean(xs []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	if len(xs) == 0 {
		return 0
	}
	return t / time.Duration(len(xs))
}
