// Command replaydiff is the cross-process determinism gate: it builds
// cmd/predis-bench with the race detector, runs one experiment in two
// separate processes — at -parallel 1 and at -parallel 2 — and asserts
// that the delivery replay hash AND the entire terminal output (modulo
// the wall-clock timing line) are byte-identical. Separate processes
// mean separate map-hash seeds and scheduler histories, so anything
// process-specific that leaks into simulation results shows up here as
// a diff. -replay runs an experiment's points one at a time, so the
// second run also checks that -parallel stays inert while a trace is
// being folded.
//
// Usage: go run ./tools/replaydiff [experiment-id] [extra flags...]
//
// The default experiment is quickstart; any further arguments are passed
// to predis-bench verbatim in both runs, so e.g.
// `go run ./tools/replaydiff quickstart -mode stream` gates the
// streaming-commit schedule the same way.
//
// Exit status 0 means the two runs matched and at least one delivery
// was folded into the hash; anything else is a failure with the diff on
// stderr.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// timingLine matches predis-bench's per-experiment wall-clock footer,
// the only legitimately nondeterministic line in its output.
var timingLine = regexp.MustCompile(`^\([a-z0-9]+ in [0-9.]+s\)$`)

// replayLine captures the "replay <id> <sha256> <n>" line emitted by
// predis-bench -replay.
var replayLine = regexp.MustCompile(`^replay ([a-z0-9]+) ([0-9a-f]{64}) ([0-9]+)$`)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "replaydiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	id := "quickstart"
	var extra []string
	if len(args) > 0 {
		id = args[0]
		extra = args[1:]
	}

	dir, err := os.MkdirTemp("", "replaydiff")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "predis-bench")

	build := exec.Command("go", "build", "-race", "-o", bin, "./cmd/predis-bench")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build -race predis-bench: %w", err)
	}

	runs := []struct {
		name string
		args []string
	}{
		{"parallel=1", append([]string{"-quick", "-seed", "1", "-replay", "-parallel", "1"}, append(extra, id)...)},
		{"parallel=2", append([]string{"-quick", "-seed", "1", "-replay", "-parallel", "2"}, append(extra, id)...)},
	}
	outs := make([]string, len(runs))
	hashes := make([]string, len(runs))
	for i, r := range runs {
		cmd := exec.Command(bin, r.args...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s %s: %w", id, r.name, err)
		}
		out, hash, n, err := scrub(string(raw))
		if err != nil {
			return fmt.Errorf("%s %s: %w", id, r.name, err)
		}
		fmt.Printf("replaydiff: %s %-10s hash=%s deliveries=%d\n", id, r.name, hash[:16], n)
		outs[i], hashes[i] = out, hash
	}

	if hashes[0] != hashes[1] {
		return fmt.Errorf("replay hash diverged: %s vs %s", hashes[0], hashes[1])
	}
	if outs[0] != outs[1] {
		fmt.Fprintln(os.Stderr, "--- terminal output diverged ---")
		diffLines(os.Stderr, outs[0], outs[1])
		return fmt.Errorf("terminal output diverged between %s and %s", runs[0].name, runs[1].name)
	}
	fmt.Printf("replaydiff: OK — %s is byte-identical across processes at %s and %s\n",
		id, runs[0].name, runs[1].name)
	return nil
}

// scrub drops the timing footer, extracts the replay line, and requires
// a non-zero delivery count (a hash over nothing proves nothing).
func scrub(raw string) (out, hash string, n uint64, err error) {
	var kept []string
	for _, line := range strings.Split(raw, "\n") {
		if timingLine.MatchString(line) {
			continue
		}
		if m := replayLine.FindStringSubmatch(line); m != nil {
			hash = m[2]
			fmt.Sscanf(m[3], "%d", &n)
		}
		kept = append(kept, line)
	}
	if hash == "" {
		return "", "", 0, fmt.Errorf("no replay line in output (is -replay supported for this experiment?)")
	}
	if n == 0 {
		return "", "", 0, fmt.Errorf("replay trace folded zero deliveries")
	}
	return strings.Join(kept, "\n"), hash, n, nil
}

// diffLines prints the first few differing lines of two outputs.
func diffLines(w *os.File, a, b string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	shown := 0
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			fmt.Fprintf(w, "line %d:\n  A: %s\n  B: %s\n", i+1, x, y)
			if shown++; shown >= 5 {
				fmt.Fprintln(w, "  ... (further diffs elided)")
				return
			}
		}
	}
}
