package harness

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"predis/internal/compute"
	"predis/internal/faults"
)

// replayWorkersOnce runs the canonical replay workload once on a pool of
// the given worker count and returns digest, delivery count, and the
// formatted result — everything the compute plane must keep invariant.
func replayWorkersOnce(t *testing.T, workers int) (string, uint64, string) {
	t.Helper()
	pool := compute.NewPool(workers)
	defer pool.Close()
	tr := NewReplayTrace()
	res, err := RunPoint(Deployment{
		System:  SysPHS,
		NC:      4,
		Offered: 1000,
		Stop:    1500 * time.Millisecond,
		Seed:    42,
		Replay:  tr,
		Compute: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Sum(), tr.Deliveries(), fmt.Sprintf("%+v", res)
}

// replayWorkersRecovery runs the crash-recovery experiment (the workload
// that exercises striping, reassembly, and catch-up — every speculative
// offload site) on a pool of the given worker count.
func replayWorkersRecovery(t *testing.T, workers int) (string, uint64, string) {
	t.Helper()
	pool := compute.NewPool(workers)
	defer pool.Close()
	tr := NewReplayTrace()
	d := recoveryDeployment(Options{Quick: true, Seed: 9, Replay: tr, Compute: pool}, 4*time.Second)
	d.FullNodes, d.Offered = 6, 1500
	d.Schedule = []faults.Action{faults.CrashWindow{Node: 100, From: 1500 * time.Millisecond, To: 2500 * time.Millisecond}}
	res, err := runRecovery(d, false)
	if err != nil {
		t.Fatal(err)
	}
	state := fmt.Sprintf("buckets=%v victim=%d live=%d", res.buckets, res.victimHead, res.liveHead)
	return tr.Sum(), tr.Deliveries(), state
}

// TestReplayWorkersEquivalent asserts the compute plane's core contract:
// same-seed runs produce byte-identical delivery traces and results for
// any worker count. Worker count 0 is the inline reference; 1 exercises
// the offload/steal machinery with no real parallelism; 4 exercises
// contention and out-of-order completion.
func TestReplayWorkersEquivalent(t *testing.T) {
	type probe struct {
		name string
		run  func(t *testing.T, workers int) (string, uint64, string)
	}
	for _, p := range []probe{
		{"phs", replayWorkersOnce},
		{"recovery", replayWorkersRecovery},
	} {
		t.Run(p.name, func(t *testing.T) {
			h0, n0, r0 := p.run(t, 0)
			if n0 == 0 {
				t.Fatal("replay trace recorded no deliveries")
			}
			for _, w := range []int{1, 4} {
				h, n, r := p.run(t, w)
				if h != h0 || n != n0 {
					t.Fatalf("workers=%d diverged from inline: %d deliveries %s vs %d deliveries %s",
						w, n, h, n0, h0)
				}
				if r != r0 {
					t.Fatalf("workers=%d results diverged:\n  inline: %s\n  pooled: %s", w, r0, r)
				}
			}
		})
	}
}

// replayWorkersChildEnv marks a re-exec'd child that should run the
// canonical workload once on PREDIS_REPLAY_WORKERS workers and print the
// digest instead of the full test.
const replayWorkersChildEnv = "PREDIS_REPLAY_WORKERS"

// TestReplayWorkersCrossProcess re-executes the test binary at -workers
// 0 and 4 — separate processes, separate map-hash seeds, separate
// scheduler histories, different pool shapes — and asserts identical
// delivery-trace digests. This is the strongest form of the worker-count
// invariance contract.
func TestReplayWorkersCrossProcess(t *testing.T) {
	if v := os.Getenv(replayWorkersChildEnv); v != "" {
		workers, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad %s=%q: %v", replayWorkersChildEnv, v, err)
		}
		h, n, _ := replayWorkersOnce(t, workers)
		fmt.Printf("REPLAY %s %d\n", h, n)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	child := func(workers int) string {
		cmd := exec.Command(exe, "-test.run=^TestReplayWorkersCrossProcess$", "-test.v")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", replayWorkersChildEnv, workers))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child run (workers=%d) failed: %v\n%s", workers, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "REPLAY "); ok {
				return rest
			}
		}
		t.Fatalf("child (workers=%d) produced no REPLAY line:\n%s", workers, out)
		return ""
	}
	h0, n0, _ := replayWorkersOnce(t, 0)
	if n0 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	local := fmt.Sprintf("%s %d", h0, n0)
	c0 := child(0)
	c4 := child(4)
	if c0 != local || c4 != local {
		t.Fatalf("cross-process worker runs diverged:\n  in-process w0: %s\n  child w0:      %s\n  child w4:      %s",
			local, c0, c4)
	}
}
