// Command perfbench is the repository's benchmark. It runs one of three
// Multi-Zone workloads (see README.md) on the simulated network, checks
// the outputs, and prints every metric by name with its unit; the last
// line of standard output is one JSON object for the benchmark driver.
//
//	perfbench --workload mz-block --seed 1 --seconds 30 --trace 0
//
// The orchestrating process runs each measured run in a fresh child
// process of its own binary: an untraced run, a traced run, and
// untraced runs again until --seconds are used. Every run of one seed
// must produce the same replay hash and the same virtual-clock numbers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"predis/internal/harness"
	"predis/internal/obs"
)

// childBudget bounds one child's host time inside Network.Run, and
// wallCap the whole orchestration, so a run exits well inside the
// driver's limit even on a slow host.
const (
	childBudget = 60 * time.Second
	wallCap     = 150 * time.Second
	maxRuns     = 40
	// Set-up probes run for setupFirst before the first child and, after
	// each child, for 1/setupShare of that child's wall time.
	setupFirst = 200 * time.Millisecond
	setupShare = 8
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mz-block, mz-stream-zipf or mz-leader-crash")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long to keep measuring, in host seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	child := fs.String("child", "", "internal: run once in this process (untraced or traced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *child != "" {
		out, err := runWorkload(w, *seed, *child == "traced", childBudget)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := orchestrate(w, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.report(stdout)
	line, err := json.Marshal(res.driverLine(*trace == 1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is everything one benchmark invocation measured.
type result struct {
	w        *Workload
	seed     int64
	setup    []float64 // seconds per set-up probe, over all batches
	untraced []*runOut
	traced   *runOut
	checks   []string
}

func orchestrate(w *Workload, seed int64, seconds time.Duration) (*result, error) {
	began := time.Now()
	res := &result{w: w, seed: seed}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), wallCap)
	defer cancel()
	spawn := func(mode string) (*runOut, error) {
		cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", w.Name,
			"--seed", strconv.FormatInt(seed, 10))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s run: %v: %s", mode, err, bytes.TrimSpace(stderr.Bytes()))
		}
		var out runOut
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("%s run: %w", mode, err)
		}
		return &out, nil
	}
	probe := func(d time.Duration) error {
		for until := time.Now().Add(d); time.Now().Before(until); {
			s, err := timeSetup(w, seed)
			if err != nil {
				return err
			}
			res.setup = append(res.setup, s)
		}
		return nil
	}
	if err := probe(setupFirst); err != nil {
		return nil, err
	}
	var last time.Duration
	for i := 0; ; i++ {
		mode := "untraced"
		if i == 1 {
			mode = "traced"
		}
		started := time.Now()
		out, err := spawn(mode)
		if err != nil {
			return nil, err
		}
		if err := probe(time.Since(started) / setupShare); err != nil {
			return nil, err
		}
		if mode == "traced" {
			res.traced = out
		} else {
			res.untraced = append(res.untraced, out)
			last = time.Since(started)
		}
		// Run at least untraced, traced, untraced; then keep measuring
		// while another run fits in the time asked for.
		elapsed := time.Since(began)
		if i >= 2 && (elapsed+last > seconds || elapsed+last > wallCap-10*time.Second || i+1 >= maxRuns) {
			break
		}
	}
	res.verify()
	return res, nil
}

// timeSetup builds the workload's first deployment and runs its join
// window, and reports how long that took: constructors, handler Start,
// and the full nodes joining and subscribing before any client sends.
// The orchestrating process probes it between the child runs, for a
// fixed share of each child's time, so the median samples the host
// across the whole invocation rather than at one moment of it, and no
// probe shares a process with a run's heap and collector.
func timeSetup(w *Workload, seed int64) (float64, error) {
	start := time.Now()
	d, err := build(w, w.Rates[0], seed, false, harness.NewReplayTrace())
	if err != nil {
		return 0, err
	}
	d.net.Run(joinWindow)
	return time.Since(start).Seconds(), nil
}

// verify checks that every run of the seed agrees with the first: the
// same replay hash, the same virtual-clock numbers, no failed checks.
func (r *result) verify() {
	runs := append([]*runOut{r.traced}, r.untraced...)
	first := r.untraced[0]
	for _, o := range runs {
		r.checks = append(r.checks, o.Checks...)
		kind := "untraced"
		if o.Traced {
			kind = "traced"
		}
		if o.Hash != first.Hash || o.Deliveries != first.Deliveries {
			r.checks = append(r.checks, fmt.Sprintf("%s run replay hash %.16s (%d deliveries) differs from %.16s (%d)",
				kind, o.Hash, o.Deliveries, first.Hash, first.Deliveries))
		}
		if o.Attempted != first.Attempted || o.Failed != first.Failed {
			r.checks = append(r.checks, fmt.Sprintf("%s run attempted/failed %d/%d, first run %d/%d",
				kind, o.Attempted, o.Failed, first.Attempted, first.Failed))
		}
		for k, v := range first.Virtual {
			if got, ok := o.Virtual[k]; ok && got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				r.checks = append(r.checks, fmt.Sprintf("%s run %s = %v, first run %v", kind, k, got, v))
			}
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostMedian is the median of one host-clock number over untraced runs.
func (r *result) hostMedian(key string) float64 {
	var xs []float64
	for _, o := range r.untraced {
		xs = append(xs, o.Host[key])
	}
	return median(xs)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a metric's name and unit.
type named struct{ name, unit string }

// endToEnd lists the bounded metrics every workload reports, with units.
var endToEnd = []named{
	{"committed_tps", "tx/s"},
	{"confirm_p50_ms", "ms"},
	{"confirm_p99_ms", "ms"},
	{"confirm_p999_ms", "ms"},
	{"fullnode_lag_mean_ms", "ms"},
	{"confirmed_share", "share"},
	{"fullnode_delivered_share", "share"},
	{"allocs_per_tx", "count"},
	{"setup_s", "s"},
}

func (r *result) endToEndValue(name string) float64 {
	switch name {
	case "setup_s":
		return median(r.setup)
	case "allocs_per_tx":
		return r.hostMedian(name)
	}
	return r.untraced[0].Virtual[name]
}

// perLayer is every per-layer metric name with its unit, in report order.
func perLayer() []named {
	out := []named{
		{"host_s_per_sim_s", "s/s"},
		{"simnet.events_per_sim_s", "1/s"},
		{"simnet.self_s_per_sim_s", "s/s"},
		{"simnet.msgs_per_tx", "count"},
		{"simnet.bytes_per_tx", "B"},
		{"simnet.leader_uplink_busy_share", "share"},
		{"simnet.fullnode_uplink_busy_max", "share"},
		{"simnet.drops_per_tx", "count"},
	}
	for _, l := range layerNames {
		out = append(out,
			named{l + ".host_s_per_sim_s", "s/s"},
			named{l + ".calls_per_tx", "count"})
	}
	out = append(out, []named{
		{"pbft.view_changes", "count"},
		{"hotstuff.timeouts", "count"},
		{"core.txs_per_block", "count"},
		{"core.blocks_per_sim_s", "1/s"},
		{"multizone.spec_waste_share", "share"},
		{"multizone.stripes_per_block", "count"},
		{"exec.abort_share", "share"},
		{"exec.mean_level_width", "count"},
		{"exec.txs_per_block", "count"},
		{"workload.resubmits_per_tx", "count"},
		{"workload.generator_lag_ms", "ms"},
	}...)
	for _, st := range obs.StageNames {
		out = append(out,
			named{"stage." + st + ".p50_ms", "ms"},
			named{"stage." + st + ".p99_ms", "ms"})
	}
	out = append(out, []named{
		{"runtime.gc_cpu_share", "share"},
		{"runtime.alloc_bytes_per_tx", "B"},
		{"runtime.heap_live_peak_mb", "MB"},
		{"peak_rss_mb", "MB"},
		{"obs.trace_overhead_share", "share"},
		{"unconfirmed_share", "share"},
		{"fullnode_fail_share", "share"},
		{"fullnode_lag_p99_ms", "ms"},
		{"max_tps_at_slo", "tx/s"},
		{"outage_ms", "ms"},
		{"victim_lag_blocks", "count"},
	}...)
	return out
}

func (r *result) perLayerValue(name string) float64 {
	t := r.traced
	switch name {
	case "host_s_per_sim_s", "runtime.gc_cpu_share", "runtime.alloc_bytes_per_tx", "runtime.heap_live_peak_mb", "peak_rss_mb":
		return r.hostMedian(name)
	case "obs.trace_overhead_share":
		return t.Host["host_s_per_sim_s"]/r.hostMedian("host_s_per_sim_s") - 1
	}
	if v, ok := t.Host[name]; ok {
		return v
	}
	return t.Virtual[name]
}

// driverLine is the final JSON line: end-to-end metrics from untraced
// runs, or per-layer metrics from the traced run.
func (r *result) driverLine(traced bool) any {
	ms := map[string]metric{}
	if traced {
		for _, m := range perLayer() {
			ms[m.name] = metric{r.perLayerValue(m.name), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			ms[m.name] = metric{r.endToEndValue(m.name), m.unit}
		}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.checks) == 0, r.untraced[0].Attempted, r.untraced[0].Failed, ms}
}

// report prints the human-readable summary that precedes the JSON line.
func (r *result) report(w io.Writer) {
	first := r.untraced[0]
	fmt.Fprintf(w, "perfbench %s seed=%d runs=%d+1traced cpus=%d GOMAXPROCS=%d %s\n",
		r.w.Name, r.seed, len(r.untraced), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "replay %s deliveries=%d attempted=%d unconfirmed=%d samples=%.0f\n",
		first.Hash, first.Deliveries, first.Attempted, first.Failed, first.Virtual["confirm_samples"])
	fmt.Fprint(w, "host_s_per_sim_s by run:")
	for _, o := range r.untraced {
		fmt.Fprintf(w, " %.4g", o.Host["host_s_per_sim_s"])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "full-node pairs at the reference rate: %.0f missing, %.0f wrong root, %.0f wrong tx count\n",
		first.Virtual["fullnode_missing"], first.Virtual["fullnode_wrong_root"], first.Virtual["fullnode_wrong_txs"])
	for _, l := range first.Ladder {
		fmt.Fprintf(w, "rung %.0f tx/s: p99 %.1f ms, unconfirmed share %.4f\n", l.Rate, l.P99ms, l.Unconfirmed)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, r.endToEndValue(m.name), m.unit)
	}
	fmt.Fprintln(w, "per-layer (traced run):")
	for _, m := range perLayer() {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, r.perLayerValue(m.name), m.unit)
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
}
