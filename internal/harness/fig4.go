package harness

import (
	"time"

	"predis/internal/stats"
)

// fig4Loads picks the offered-load sweep for throughput-latency curves.
func fig4Loads(o Options, predis bool) []float64 {
	if o.Quick {
		if predis {
			return []float64{4000, 12000, 20000}
		}
		return []float64{2000, 5000, 8000}
	}
	if predis {
		return []float64{4000, 8000, 12000, 16000, 20000, 26000}
	}
	return []float64{1000, 2000, 4000, 6000, 8000, 10000}
}

func fig4Duration(o Options) time.Duration {
	if o.Quick {
		return 3 * time.Second
	}
	return 6 * time.Second
}

// fig4SizeVariants runs one engine family with the paper's bundle/batch
// variants: baseline batch ∈ {400, 800}, Predis bundle ∈ {25, 50, 100}.
func fig4SizeVariants(o Options, baseline, predis System, title string) ([]*stats.Table, error) {
	type variant struct {
		sys    System
		bundle int
		batch  int
		label  string
	}
	variants := []variant{
		{baseline, 0, 400, string(baseline) + "-batch400"},
		{baseline, 0, 800, string(baseline) + "-batch800"},
		{predis, 25, 0, string(predis) + "-bundle25"},
		{predis, 50, 0, string(predis) + "-bundle50"},
		{predis, 100, 0, string(predis) + "-bundle100"},
	}
	if o.Quick {
		variants = []variant{
			{baseline, 0, 800, string(baseline) + "-batch800"},
			{predis, 50, 0, string(predis) + "-bundle50"},
		}
	}
	tput := &stats.Table{Title: title + " — throughput (tx/s) vs offered load", XLabel: "offered"}
	lat := &stats.Table{Title: title + " — latency (ms) vs throughput", XLabel: "tput"}
	type sweep struct{ tl, lat *stats.Series }
	sweeps, err := fanOut(o, len(variants), func(i int) (sweep, error) {
		v := variants[i]
		base := o.deployment()
		base.System, base.WAN = v.sys, true
		base.BundleSize, base.BatchSize = v.bundle, v.batch
		base.Stop = fig4Duration(o)
		ts, ls, err := LoadSweep(base, fig4Loads(o, v.bundle > 0))
		if err != nil {
			return sweep{}, err
		}
		ts.Name, ls.Name = v.label, v.label
		return sweep{ts, ls}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range sweeps {
		tput.Series = append(tput.Series, s.tl)
		lat.Series = append(lat.Series, s.lat)
	}
	return []*stats.Table{tput, lat}, nil
}

// Fig4a reproduces Fig. 4(a): PBFT vs P-PBFT with different bundle and
// batch sizes in the WAN environment, nc = 4.
func Fig4a(o Options) ([]*stats.Table, error) {
	return fig4SizeVariants(o, SysPBFT, SysPPBFT, "Fig.4(a) PBFT family")
}

// Fig4b reproduces Fig. 4(b): HotStuff vs P-HS with different bundle and
// batch sizes.
func Fig4b(o Options) ([]*stats.Table, error) {
	return fig4SizeVariants(o, SysHotStuff, SysPHS, "Fig.4(b) HotStuff family")
}

// fig4Scalability measures saturated throughput for nc ∈ {4,8,16}.
func fig4Scalability(o Options, baseline, predis System, title string) ([]*stats.Table, error) {
	ncs := []int{4, 8, 16}
	if o.Quick {
		ncs = []int{4, 8}
	}
	tbl := &stats.Table{Title: title + " — saturated throughput (tx/s) vs nc", XLabel: "nc"}
	systems := []System{baseline, predis}
	// Flatten (system × nc) into one worker-pool batch; results merge
	// back by index, so series order matches the sequential loop.
	specs := make([]Deployment, 0, len(systems)*len(ncs))
	for _, sys := range systems {
		for _, nc := range ncs {
			// Offer more than either system can absorb so the measurement
			// reflects capacity, not load.
			offered := 30000.0
			if sys == baseline {
				offered = 12000
			}
			d := o.deployment()
			d.System, d.NC, d.WAN = sys, nc, true
			d.Offered, d.Stop = offered, fig4Duration(o)
			specs = append(specs, d)
		}
	}
	results, err := runPoints(o, specs)
	if err != nil {
		return nil, err
	}
	for si, sys := range systems {
		series := &stats.Series{Name: string(sys)}
		for ni, nc := range ncs {
			series.Add(float64(nc), results[si*len(ncs)+ni].Throughput)
		}
		tbl.Series = append(tbl.Series, series)
	}
	return []*stats.Table{tbl}, nil
}

// Fig4c reproduces Fig. 4(c): PBFT vs P-PBFT as nc grows.
func Fig4c(o Options) ([]*stats.Table, error) {
	return fig4Scalability(o, SysPBFT, SysPPBFT, "Fig.4(c) PBFT scalability")
}

// Fig4d reproduces Fig. 4(d): HotStuff vs P-HS as nc grows.
func Fig4d(o Options) ([]*stats.Table, error) {
	return fig4Scalability(o, SysHotStuff, SysPHS, "Fig.4(d) HotStuff scalability")
}
