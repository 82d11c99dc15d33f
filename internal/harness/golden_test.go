package harness

import "testing"

// TestGoldenReplayHashes pins each experiment's seed-1 quick-mode replay
// digest and delivery count across commits. The other replay tests
// compare two runs of one binary; this one catches a change that moves
// the schedule deterministically. A change that means to move a hash
// updates the pinned value in its own commit and says why.
func TestGoldenReplayHashes(t *testing.T) {
	golden := []struct {
		id     string
		stream bool
		sum    string
		n      uint64
	}{
		{"quickstart", false, "6955f68930b817e40626798527c689e6dfb72f1dae38c5a5710e6f112db57687", 24290},
		{"quickstart", true, "03c538c1c4ccf9dc7c6fc0eaa4d42b9ce4c48915b1bbcbfb4c79022a8aef2a33", 165114},
		{"recovery", false, "389416f63b3a19a3609fe92fc6d0c998880973260d73df2ee4bfa04fffae3d33", 248099},
		{"byzantine", false, "013b082844969467cb44ce29fcf1084243c99196b60536131896ca8c942ae415", 530816},
		{"contention", false, "c500375fcdd54dfeb4a690f64196f94355b4fe3a030220edc86e195c77a315c3", 52776},
		{"latfloor", false, "63a5b7a3d4355987b8736aa21a695581e3ec891b544fe634fdc1b832264b439d", 266816},
	}
	for _, g := range golden {
		e, err := Lookup(g.id)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewReplayTrace()
		if _, err := e.Run(Options{Quick: true, Seed: 1, Replay: tr, Stream: g.stream}); err != nil {
			t.Fatalf("%s (stream=%v): %v", g.id, g.stream, err)
		}
		if got, n := tr.Sum(), tr.Deliveries(); got != g.sum || n != g.n {
			t.Errorf("%s (stream=%v): replay %s %d, want %s %d", g.id, g.stream, got, n, g.sum, g.n)
		}
	}
}
