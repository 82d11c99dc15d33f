package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/faults"
	"predis/internal/simnet"
)

// TestReplayQuickstartDeterministic runs the quickstart-style experiment
// twice with the same seed and asserts the delivery traces — and the
// measured results — are byte-identical. This is the runtime backstop
// behind the predis-lint determinism analyzers: anything they cannot see
// statically (a wall clock smuggled through a new dependency, goroutine
// scheduling, map-order emission) shows up here as a hash mismatch.
func TestReplayQuickstartDeterministic(t *testing.T) {
	run := func() (string, uint64, string) {
		tr := NewReplayTrace()
		res, err := RunPoint(Deployment{
			System:  SysPHS,
			NC:      4,
			Offered: 1000,
			Stop:    1500 * time.Millisecond,
			Seed:    42,
			Replay:  tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Sum(), tr.Deliveries(), fmt.Sprintf("%+v", res)
	}

	h1, n1, r1 := run()
	h2, n2, r2 := run()
	if n1 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed runs diverged: %d deliveries %s vs %d deliveries %s",
			n1, h1, n2, h2)
	}
	if r1 != r2 {
		t.Fatalf("same-seed results diverged:\n  %s\n  %s", r1, r2)
	}
}

// replayHashOnce runs the canonical replay workload once and returns its
// delivery-trace digest (shared by the in-process and cross-process
// determinism tests).
func replayHashOnce(t *testing.T) (string, uint64) {
	t.Helper()
	tr := NewReplayTrace()
	if _, err := RunPoint(Deployment{
		System:  SysPHS,
		NC:      4,
		Offered: 1000,
		Stop:    1500 * time.Millisecond,
		Seed:    42,
		Replay:  tr,
	}); err != nil {
		t.Fatal(err)
	}
	return tr.Sum(), tr.Deliveries()
}

// replayChildEnv marks a re-exec'd child process that should run the
// replay workload once and print its digest instead of the full test.
const replayChildEnv = "PREDIS_REPLAY_CHILD"

// TestReplayCrossProcessDeterministic re-executes the test binary twice
// — two separate OS processes, hence two different Go map-hash seeds and
// scheduler histories — and asserts both produce the same delivery-trace
// digest as an in-process run. This pins the strongest form of the
// determinism contract: simulations are byte-identical across process
// runs, not merely within one process.
func TestReplayCrossProcessDeterministic(t *testing.T) {
	if os.Getenv(replayChildEnv) == "1" {
		h, n := replayHashOnce(t)
		fmt.Printf("REPLAY %s %d\n", h, n)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	child := func() string {
		cmd := exec.Command(exe, "-test.run=^TestReplayCrossProcessDeterministic$", "-test.v")
		cmd.Env = append(os.Environ(), replayChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child run failed: %v\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "REPLAY "); ok {
				return rest
			}
		}
		t.Fatalf("child produced no REPLAY line:\n%s", out)
		return ""
	}
	h0, n0 := replayHashOnce(t)
	local := fmt.Sprintf("%s %d", h0, n0)
	c1 := child()
	c2 := child()
	if n0 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	if c1 != local || c2 != local {
		t.Fatalf("cross-process runs diverged:\n  in-process: %s\n  child 1:    %s\n  child 2:    %s",
			local, c1, c2)
	}
}

// TestReplayRecoveryDeterministic does the same for the crash-recovery
// experiment: the fault injector, catch-up protocol, and Multi-Zone
// relays must all be replay-deterministic under a fixed seed.
func TestReplayRecoveryDeterministic(t *testing.T) {
	run := func() (string, uint64, string) {
		tr := NewReplayTrace()
		d := recoveryDeployment(Options{Quick: true, Seed: 7, Replay: tr}, 6*time.Second)
		d.FullNodes, d.Offered = 6, 1500
		d.Schedule = []faults.Action{faults.CrashWindow{Node: 100, From: 2 * time.Second, To: 3500 * time.Millisecond}}
		res, err := runRecovery(d, false)
		if err != nil {
			t.Fatal(err)
		}
		state := fmt.Sprintf("buckets=%v trace=%q victim=%d live=%d catchingUp=%v",
			res.buckets, res.trace, res.victimHead, res.liveHead, res.catchingUp)
		return tr.Sum(), tr.Deliveries(), state
	}

	h1, n1, s1 := run()
	h2, n2, s2 := run()
	if n1 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed recovery runs diverged: %d deliveries %s vs %d deliveries %s",
			n1, h1, n2, h2)
	}
	if s1 != s2 {
		t.Fatalf("same-seed recovery state diverged:\n  %s\n  %s", s1, s2)
	}
}

// TestReplayTraceRecord pins the fold: each delivery adds one 28-byte
// record (from, to, type, wire size, virtual offset, two zero bytes) to
// the running SHA-256, and recording allocates nothing.
func TestReplayTraceRecord(t *testing.T) {
	tr := NewReplayTrace()
	m := &core.CatchupRequest{Height: 9}
	at := simnet.Epoch.Add(1500 * time.Microsecond)
	tr.record(3, 7, m, at)
	tr.record(7, 3, m, at.Add(time.Millisecond))

	want := sha256.New()
	for _, d := range []struct {
		from, to uint32
		at       time.Duration
	}{{3, 7, 1500 * time.Microsecond}, {7, 3, 2500 * time.Microsecond}} {
		var rec [28]byte
		binary.LittleEndian.PutUint32(rec[0:], d.from)
		binary.LittleEndian.PutUint32(rec[4:], d.to)
		binary.LittleEndian.PutUint16(rec[8:], uint16(m.Type()))
		binary.LittleEndian.PutUint64(rec[10:], uint64(m.WireSize()))
		binary.LittleEndian.PutUint64(rec[18:], uint64(d.at))
		want.Write(rec[:])
	}
	if got := tr.Sum(); got != hex.EncodeToString(want.Sum(nil)) || tr.Deliveries() != 2 {
		t.Fatalf("trace %s over %d deliveries, want %x over 2", got, tr.Deliveries(), want.Sum(nil))
	}
}

// TestReplayTraceRecordZeroAlloc: folding a delivery into the trace
// allocates nothing.
func TestReplayTraceRecordZeroAlloc(t *testing.T) {
	tr := NewReplayTrace()
	m := &core.CatchupRequest{Height: 9}
	if n := testing.AllocsPerRun(100, func() { tr.record(3, 7, m, simnet.Epoch) }); n != 0 {
		t.Fatalf("ReplayTrace.record allocates %.1f objects, want 0", n)
	}
}
