// Command predis-bench regenerates the paper's evaluation figures
// (§V, Figs. 4–8) from the simulated testbed, plus the crash-recovery
// experiment (scripted relayer and leader crash/restart) and the
// quickstart pipeline walkthrough.
//
// Usage:
//
//	predis-bench [-quick] [-seed N] list
//	predis-bench [-quick] [-seed N] run <experiment-id>...
//	predis-bench [-quick] [-seed N] all
//	predis-bench [-quick] [-seed N] <experiment-id>... [-trace] [-metrics]
//
// Experiment ids: quickstart fig4a fig4b fig4c fig4d fig5wan fig5lan fig6
// fig7 fig8 recovery byzantine contention scale latfloor. The scale
// experiment sweeps 10²..5·10⁴-node populations (aggregated client
// flows, k-ary multicast trees); its latency/depth/throughput tables are
// deterministic while its machine-cost table (wall-clock, peak RSS) is
// inherently host-dependent, so scale does not participate in -replay;
// nor does fig8, whose propagation rigs run no consensus group.
// The latfloor experiment contrasts block-granularity commit with
// streaming commit (-mode stream elsewhere) on the same P-PBFT
// deployment; see EXPERIMENTS.md "Latency floor".
//
// Observability (experiments that support it: quickstart, recovery):
//
//	-trace        write Chrome trace-event JSON (<id>-trace.json; open in
//	              chrome://tracing or https://ui.perfetto.dev) plus the
//	              per-stage latency breakdown CSV (<id>-stages.csv)
//	-trace-out    override the trace output path
//	-metrics      write CSVs: per-stage latency breakdown (<id>-stages.csv),
//	              metric registry (<id>-metrics.csv), NIC/queue samples
//	              (<id>-samples.csv), and per-link bytes (<id>-links.csv)
//	-metrics-out  override the CSV path prefix
//
// Flags and experiment ids can be interleaved, so
// `predis-bench -quick quickstart -trace` works.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"predis/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// cli holds the parsed command line.
type cli struct {
	quick      bool
	seed       int64
	parallel   int
	mode       string
	replay     bool
	trace      bool
	traceOut   string
	metrics    bool
	metricsOut string
	cpuProfile string
	memProfile string
}

// parse accepts flags and positionals in any order: the flag package
// stops at the first non-flag argument, so parsing resumes after each
// positional until the argument list is exhausted.
func parse(argv []string) (cli, []string, error) {
	var c cli
	fs := flag.NewFlagSet("predis-bench", flag.ContinueOnError)
	fs.BoolVar(&c.quick, "quick", false, "shrink durations and sweeps (~1 minute total)")
	fs.Int64Var(&c.seed, "seed", 1, "simulation seed")
	fs.IntVar(&c.parallel, "parallel", 1, "run up to N independent experiment points concurrently (results are identical to -parallel 1)")
	fs.StringVar(&c.mode, "mode", "block", "commit mode for mode-aware experiments (quickstart): block = classic block-granularity commit, stream = streaming commit (seal→order→distribute→execute pipelined at bundle granularity); latfloor always contrasts both")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&c.replay, "replay", false, "print the delivery replay hash for every experiment but fig8 and scale (their points then run sequentially); identical for any -parallel setting")
	fs.BoolVar(&c.trace, "trace", false, "write Chrome trace-event JSON for supporting experiments")
	fs.StringVar(&c.traceOut, "trace-out", "", "trace output path (default <id>-trace.json)")
	fs.BoolVar(&c.metrics, "metrics", false, "write stage/metric/sample CSVs for supporting experiments")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "CSV path prefix (default <id>)")
	fs.Usage = usage
	var positionals []string
	for {
		if err := fs.Parse(argv); err != nil {
			return c, nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return c, positionals, nil
		}
		positionals = append(positionals, rest[0])
		argv = rest[1:]
	}
}

func run(argv []string) int {
	c, args, err := parse(argv)
	if err != nil {
		return 2
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predis-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "predis-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "predis-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "predis-bench: memprofile: %v\n", err)
			}
		}()
	}
	if c.mode != "block" && c.mode != "stream" {
		fmt.Fprintf(os.Stderr, "predis-bench: -mode must be block or stream, got %q\n", c.mode)
		return 2
	}
	opts := harness.Options{
		Quick: c.quick, Seed: c.seed, Parallel: c.parallel,
		Stream: c.mode == "stream",
	}

	switch args[0] {
	case "list":
		for _, e := range harness.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	case "all":
		for _, e := range harness.Registry() {
			if code := runOne(e, opts, c); code != 0 {
				return code
			}
		}
		return 0
	case "run":
		args = args[1:]
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "predis-bench: run needs at least one experiment id")
			return 2
		}
		fallthrough
	default:
		// Bare experiment ids: `predis-bench -quick quickstart -trace`.
		for _, id := range args {
			e, err := harness.Lookup(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "predis-bench:", err)
				return 2
			}
			if code := runOne(e, opts, c); code != 0 {
				return code
			}
		}
		return 0
	}
}

func runOne(e harness.Experiment, opts harness.Options, c cli) int {
	fmt.Printf("### %s — %s\n", e.ID, e.Title)
	var sink *harness.Sink
	if c.trace || c.metrics {
		sink = &harness.Sink{}
		opts.Obs = sink
	}
	var replay *harness.ReplayTrace
	if c.replay {
		replay = harness.NewReplayTrace()
		opts.Replay = replay
	}
	start := time.Now()
	tables, err := e.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predis-bench: %s: %v\n", e.ID, err)
		return 1
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if replay != nil {
		if n := replay.Deliveries(); n > 0 {
			fmt.Printf("replay %s %s %d\n", e.ID, replay.Sum(), n)
		} else {
			fmt.Printf("replay %s unsupported\n", e.ID)
		}
	}
	if sink != nil {
		if code := export(e.ID, sink, c); code != 0 {
			return code
		}
	}
	fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	return 0
}

// export writes the observability artifacts an experiment deposited in
// the sink. Experiments without observability leave the sink empty.
func export(id string, sink *harness.Sink, c cli) int {
	if sink.Trace == nil {
		fmt.Printf("(%s does not support -trace/-metrics; nothing exported)\n", id)
		return 0
	}
	writeFile := func(path string, write func(f *os.File) error) int {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predis-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := write(f); err != nil {
			fmt.Fprintf(os.Stderr, "predis-bench: write %s: %v\n", path, err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
		return 0
	}
	prefix := c.metricsOut
	if prefix == "" {
		prefix = id
	}
	if c.trace {
		path := c.traceOut
		if path == "" {
			path = id + "-trace.json"
		}
		if code := writeFile(path, func(f *os.File) error {
			return sink.Trace.WriteChrome(f, sink.Sampler)
		}); code != 0 {
			return code
		}
	}
	// The per-stage latency breakdown accompanies both flags: it is the
	// CSV companion to the trace as well as the headline metrics table.
	if c.trace || c.metrics {
		if code := writeFile(prefix+"-stages.csv", func(f *os.File) error {
			return sink.Trace.WriteStageCSV(f)
		}); code != 0 {
			return code
		}
	}
	if c.metrics {
		if sink.Metrics != nil {
			if code := writeFile(prefix+"-metrics.csv", func(f *os.File) error {
				return sink.Metrics.WriteCSV(f)
			}); code != 0 {
				return code
			}
		}
		if sink.Sampler != nil {
			if code := writeFile(prefix+"-samples.csv", func(f *os.File) error {
				return sink.Sampler.WriteCSV(f)
			}); code != 0 {
				return code
			}
			if code := writeFile(prefix+"-links.csv", func(f *os.File) error {
				return sink.Sampler.WriteLinkCSV(f)
			}); code != 0 {
				return code
			}
		}
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `predis-bench regenerates the paper's evaluation figures.

Usage:
  predis-bench [-quick] [-seed N] list
  predis-bench [-quick] [-seed N] run <id>...
  predis-bench [-quick] [-seed N] all
  predis-bench [-quick] [-seed N] <id>... [-trace] [-metrics]

Observability (quickstart, recovery):
  -trace writes Chrome trace-event JSON plus the stage-latency CSV;
  -metrics writes stage-latency, metric, NIC/queue-sample, and per-link
  byte CSVs. Flags and ids may be interleaved.

Flags:
  -quick         shrink durations and sweeps (~1 minute total)
  -seed N        simulation seed (default 1)
  -parallel N    run up to N experiment points concurrently (wall-clock
                 only; every point owns its own simulation, so results
                 and replay hashes match -parallel 1 exactly)
  -mode M        block (default) or stream. Stream switches mode-aware
                 experiments (quickstart) to streaming commit: bundles
                 seal per transaction, consensus orders bundle-chain
                 cursor advances, Multi-Zone distributes speculatively at
                 proposal time, execution merges per bundle. latfloor
                 contrasts both modes regardless of -mode.
  -trace         write Chrome trace-event JSON + stage-latency CSV
  -trace-out P   trace output path (default <id>-trace.json)
  -metrics       write stage/metric/sample/link CSVs
  -metrics-out P CSV path prefix (default <id>)
  -replay        print "replay <id> <sha256> <deliveries>" for every
                 experiment but fig8 and scale (points then run one at a
                 time); the hash is identical for any -parallel setting
  -cpuprofile P  write a CPU profile (inspect with go tool pprof)
  -memprofile P  write a heap profile at exit
`)
}
