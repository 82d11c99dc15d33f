package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// streamReplayOnce runs one streaming-commit P-PBFT point — eager cuts,
// a 16-slot pipeline, per-bundle execution merges — and returns its
// replay digest, delivery count, and formatted result.
func streamReplayOnce(t *testing.T) (string, uint64, string) {
	t.Helper()
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Sum(), tr.Deliveries(), fmt.Sprintf("%+v", res)
}

// TestStreamReplayDeterministic asserts streaming commit keeps the replay
// contract block mode has always had: same-seed runs are byte-identical,
// so speculative pipelining lets no wall-clock scheduling leak into the
// virtual-time schedule.
func TestStreamReplayDeterministic(t *testing.T) {
	sum0, n0, state0 := streamReplayOnce(t)
	if n0 == 0 {
		t.Fatal("stream point delivered no messages")
	}
	for i := 1; i < 3; i++ {
		sum, n, state := streamReplayOnce(t)
		if sum != sum0 || n != n0 || state != state0 {
			t.Errorf("run=%d diverged:\n got %q n=%d %s\nwant %q n=%d %s",
				i, sum, n, state, sum0, n0, state0)
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
	sum, _, _ := streamReplayOnce(t)
	if tr.Sum() == sum {
		t.Fatal("block and stream modes produced identical schedules")
	}
}

// TestStreamQuickstartDeterministic runs the full streaming pipeline —
// speculative Multi-Zone distribution, spec-buffer settlement, per-bundle
// execution on every consensus host — three times and asserts
// byte-identical observability exports, like the block-mode determinism
// test it mirrors.
func TestStreamQuickstartDeterministic(t *testing.T) {
	run := func() (string, string, string) {
		sink := &Sink{}
		if _, err := Quickstart(Options{
			Quick: true, Seed: 3, Stream: true, Obs: sink,
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
	t1, m1, s1 := run()
	for i := 1; i < 3; i++ {
		t2, m2, s2 := run()
		if t1 != t2 {
			t.Errorf("run=%d: chrome traces differ between same-seed stream runs", i)
		}
		if m1 != m2 {
			t.Errorf("run=%d: metrics CSVs differ between same-seed stream runs", i)
		}
		if s1 != s2 {
			t.Errorf("run=%d: stage CSVs differ between same-seed stream runs", i)
		}
	}
}
