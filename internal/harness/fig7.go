package harness

import (
	"fmt"
	"time"

	"predis/internal/stats"
)

// fig7Point measures consensus throughput with n full nodes attached
// round-robin, through the star topology (zones == 0) or Multi-Zone.
func fig7Point(o Options, nc, n, zones int, offered float64, duration time.Duration) (float64, error) {
	d := o.deployment()
	d.System, d.NC, d.Offered = SysPPBFT, nc, offered
	d.FullNodes, d.Zones, d.Interleave = n, zones, true
	d.Stop = d.joinWindow() + duration
	d.Collector = d.measured()
	b, err := Build(d)
	if err != nil {
		return 0, err
	}
	b.Run(d.Stop)
	return d.Collector.Throughput(), nil
}

// Fig7 reproduces "Effect on Throughput": offered load fixed (26,000 tx/s
// in the paper), sweeping the number of full nodes, comparing the star
// topology against Multi-Zone, for two consensus group sizes.
func Fig7(o Options) ([]*stats.Table, error) {
	fullCounts := []int{8, 16, 24, 36, 48}
	ncs := []int{4, 8}
	zones := 4
	offered := 26000.0
	duration := 6 * time.Second
	if o.Quick {
		fullCounts = []int{8, 24}
		ncs = []int{4}
		offered = 12000
		duration = 3 * time.Second
	}
	tbl := &stats.Table{
		Title:  "Fig.7 consensus throughput (tx/s) vs number of full nodes",
		XLabel: "fullNodes",
	}
	// Flatten (nc × fullCount × {star, multizone}) into one batch for the
	// worker pool; each point is an independent simulation.
	type point struct{ nc, n, zones int }
	var points []point
	for _, nc := range ncs {
		for _, n := range fullCounts {
			points = append(points, point{nc, n, 0}, point{nc, n, zones})
		}
	}
	results, err := fanOut(o, len(points), func(i int) (float64, error) {
		p := points[i]
		return fig7Point(o, p.nc, p.n, p.zones, offered, duration)
	})
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, nc := range ncs {
		star := &stats.Series{Name: fmt.Sprintf("star-nc%d", nc)}
		mz := &stats.Series{Name: fmt.Sprintf("multizone-nc%d", nc)}
		for _, n := range fullCounts {
			star.Add(float64(n), results[idx])
			mz.Add(float64(n), results[idx+1])
			idx += 2
		}
		tbl.Series = append(tbl.Series, star, mz)
	}
	return []*stats.Table{tbl}, nil
}
