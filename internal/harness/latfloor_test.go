package harness

import (
	"testing"
)

// TestLatencyFloorHeadline pins the PR's headline claim on the quick
// grid: on LAN at equal offered load, streaming commit cuts mean and p99
// confirmed latency by at least 40% versus block mode, with committed
// throughput within 5%. The simulation is virtual-time deterministic, so
// these are exact regression bounds, not flaky wall-clock measurements.
func TestLatencyFloorHeadline(t *testing.T) {
	tables, err := LatencyFloor(Options{Quick: true, Seed: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3 (LAN latency, WAN latency, parity)", len(tables))
	}
	lan := tables[0]
	series := make(map[string][]float64)
	var loads []float64
	for _, s := range lan.Series {
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
			ys[i] = p.Y
		}
		series[s.Name] = ys
		if loads == nil {
			for _, p := range s.Points {
				loads = append(loads, p.X)
			}
		}
	}
	for _, stat := range []string{"mean", "p99"} {
		block, stream := series["block "+stat], series["stream "+stat]
		if len(block) == 0 || len(block) != len(stream) {
			t.Fatalf("LAN table missing %s series: %v", stat, lan.Series)
		}
		for i := range block {
			if cut := 1 - stream[i]/block[i]; cut < 0.40 {
				t.Errorf("LAN %s @ %.0f tx/s: stream %.1f ms vs block %.1f ms — cut %.1f%% < 40%%",
					stat, loads[i], stream[i], block[i], 100*cut)
			}
		}
	}

	parity := make(map[string][]float64)
	for _, s := range tables[2].Series {
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
			ys[i] = p.Y
		}
		parity[s.Name] = ys
	}
	for _, net := range []string{"LAN", "WAN"} {
		block, stream := parity[net+" block tx/s"], parity[net+" stream tx/s"]
		for i := range block {
			if delta := stream[i]/block[i] - 1; delta > 0.05 || delta < -0.05 {
				t.Errorf("%s throughput @ %.0f tx/s: stream %.0f vs block %.0f — %.1f%% off parity",
					net, loads[i], stream[i], block[i], 100*delta)
			}
		}
	}
	// Fault-free runs speculate without waste: no proposal retractions.
	for _, net := range []string{"LAN", "WAN"} {
		for i, v := range parity[net+" stream retractions"] {
			if v != 0 {
				t.Errorf("%s @ %.0f tx/s: %v retractions in a fault-free run", net, loads[i], v)
			}
		}
	}
}
