package harness

import (
	"time"

	"predis/internal/core"
	"predis/internal/stats"
	"predis/internal/wire"
)

// Fig6 reproduces "Predis under Faults": nc = 8, with f ∈ {0, 1, 2}
// malicious nodes behaving per case 1 (silent: no bundles, no votes) or
// case 2 (refuse to vote, send bundles to only n_c−f−1 random peers).
// The paper reports case-1 throughput ≈ (8−f)/8 of normal and case-2
// throughput between case 1 and normal with higher latency.
func Fig6(o Options) ([]*stats.Table, error) {
	duration := 6 * time.Second
	offered := 16000.0
	if o.Quick {
		duration = 3 * time.Second
		offered = 10000
	}
	cases := []struct {
		name string
		mode core.FaultMode
	}{
		{"normal", core.FaultNone},
		{"case1-silent", core.FaultSilent},
		{"case2-partial", core.FaultPartial},
	}
	tput := &stats.Table{Title: "Fig.6 Predis under faults (nc=8) — throughput (tx/s) vs f", XLabel: "f"}
	lat := &stats.Table{Title: "Fig.6 Predis under faults (nc=8) — latency (ms) vs f", XLabel: "f"}
	// Flatten (case × f) into one worker-pool batch, remembering which
	// case/f each point belongs to so the series assemble in loop order.
	type pointKey struct {
		caseIdx int
		f       int
	}
	var keys []pointKey
	var specs []Deployment
	for ci, c := range cases {
		for _, f := range []int{0, 1, 2} {
			if c.mode == core.FaultNone && f > 0 {
				continue // "normal" is a single reference point
			}
			faults := make(map[wire.NodeID]core.FaultMode)
			for k := 0; k < f; k++ {
				// Faulty nodes are non-leaders so throughput, not view
				// changes, dominates the measurement (the paper's cases
				// keep the leader honest).
				faults[wire.NodeID(7-k)] = c.mode
			}
			keys = append(keys, pointKey{ci, f})
			d := o.deployment()
			d.System, d.NC, d.Offered, d.Stop = SysPPBFT, 8, offered, duration
			d.Faults = faults
			specs = append(specs, d)
		}
	}
	results, err := runPoints(o, specs)
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		ts := &stats.Series{Name: c.name}
		ls := &stats.Series{Name: c.name}
		for i, k := range keys {
			if k.caseIdx != ci {
				continue
			}
			res := results[i]
			ts.Add(float64(k.f), res.Throughput)
			ls.Add(float64(k.f), float64(res.Latency.Mean)/float64(time.Millisecond))
		}
		tput.Series = append(tput.Series, ts)
		lat.Series = append(lat.Series, ls)
	}
	return []*stats.Table{tput, lat}, nil
}
