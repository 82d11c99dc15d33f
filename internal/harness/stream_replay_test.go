package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"predis/internal/compute"
)

// streamReplayOnce runs one streaming-commit P-PBFT point — eager cuts,
// a 16-slot pipeline, per-bundle execution merges — on a pool of the
// given worker count and returns its replay digest, delivery count, and
// formatted result.
func streamReplayOnce(t *testing.T, workers int) (string, uint64, string) {
	t.Helper()
	pool := compute.NewPool(workers)
	defer pool.Close()
	tr := NewReplayTrace()
	res, err := RunPoint(Deployment{
		System:   SysPPBFT,
		NC:       4,
		Offered:  1200,
		Stop:     1500 * time.Millisecond,
		Seed:     42,
		Stream:   true,
		Pipeline: 16,
		Replay:   tr,
		Compute:  pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Sum(), tr.Deliveries(), fmt.Sprintf("%+v", res)
}

// TestStreamReplayDeterministic asserts streaming commit keeps the replay
// contract block mode has always had: two same-seed runs are
// byte-identical, and the digest is invariant across compute-pool sizes
// (0 = inline, 1, 4) — speculative pipelining must not let wall-clock
// scheduling leak into the virtual-time schedule.
func TestStreamReplayDeterministic(t *testing.T) {
	type run struct {
		sum   string
		n     uint64
		state string
	}
	runs := make(map[int][]run)
	for _, workers := range []int{0, 1, 4} {
		for i := 0; i < 2; i++ {
			sum, n, state := streamReplayOnce(t, workers)
			runs[workers] = append(runs[workers], run{sum, n, state})
		}
	}
	base := runs[0][0]
	if base.n == 0 {
		t.Fatal("stream point delivered no messages")
	}
	for _, workers := range []int{0, 1, 4} {
		for i, r := range runs[workers] {
			if r != base {
				t.Errorf("workers=%d run=%d diverged:\n got %q n=%d %s\nwant %q n=%d %s",
					workers, i, r.sum, r.n, r.state, base.sum, base.n, base.state)
			}
		}
	}
}

// TestStreamBlockModesDiverge sanity-checks the experiment itself: the
// streaming schedule must actually differ from block mode (otherwise the
// latency-floor comparison would be measuring nothing).
func TestStreamBlockModesDiverge(t *testing.T) {
	tr := NewReplayTrace()
	if _, err := RunPoint(Deployment{
		System: SysPPBFT, NC: 4, Offered: 1200,
		Stop: 1500 * time.Millisecond, Seed: 42, Replay: tr,
	}); err != nil {
		t.Fatal(err)
	}
	sum, _, _ := streamReplayOnce(t, 0)
	if tr.Sum() == sum {
		t.Fatal("block and stream modes produced identical schedules")
	}
}

// TestStreamQuickstartDeterministic runs the full streaming pipeline —
// speculative Multi-Zone distribution, spec-buffer settlement, per-bundle
// execution on every consensus host — twice per compute-pool size and
// asserts byte-identical observability exports, like the block-mode
// determinism test it mirrors.
func TestStreamQuickstartDeterministic(t *testing.T) {
	run := func(workers int) (string, string, string) {
		pool := compute.NewPool(workers)
		defer pool.Close()
		sink := &Sink{}
		if _, err := Quickstart(Options{
			Quick: true, Seed: 3, Stream: true, Obs: sink, Compute: pool,
		}); err != nil {
			t.Fatalf("stream quickstart: %v", err)
		}
		var trace, metrics, stages bytes.Buffer
		if err := sink.Trace.WriteChrome(&trace, sink.Sampler); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if err := sink.Metrics.WriteCSV(&metrics); err != nil {
			t.Fatalf("metrics csv: %v", err)
		}
		if err := sink.Trace.WriteStageCSV(&stages); err != nil {
			t.Fatalf("stage csv: %v", err)
		}
		return trace.String(), metrics.String(), stages.String()
	}
	t1, m1, s1 := run(0)
	for _, workers := range []int{0, 4} {
		t2, m2, s2 := run(workers)
		if t1 != t2 {
			t.Errorf("workers=%d: chrome traces differ between same-seed stream runs", workers)
		}
		if m1 != m2 {
			t.Errorf("workers=%d: metrics CSVs differ between same-seed stream runs", workers)
		}
		if s1 != s2 {
			t.Errorf("workers=%d: stage CSVs differ between same-seed stream runs", workers)
		}
	}
}
