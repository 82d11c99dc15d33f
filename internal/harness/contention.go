package harness

import (
	"encoding/binary"
	"fmt"
	"time"

	"predis/internal/crypto"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/stats"
	"predis/internal/workload"
)

// contentionAmount is the per-transfer amount (and RMW delta).
const contentionAmount = 50

// contentionSpec is one point of the contention sweep: a skew shape for
// the semantic workload.
type contentionSpec struct {
	name string
	zipf workload.ZipfConfig
}

// contentionScenarios sweeps conflict rate from conflict-free to a
// single global hotspot.
func contentionScenarios(seed int64) []contentionSpec {
	return []contentionSpec{
		{"uniform-4096", workload.ZipfConfig{
			Accounts: 4096, Theta: 0, RMWFrac: 0.1,
			Amount: contentionAmount, Seed: uint64(seed)}},
		{"zipf0.9-1024", workload.ZipfConfig{
			Accounts: 1024, Theta: 0.9, RMWFrac: 0.1,
			Amount: contentionAmount, Seed: uint64(seed)}},
		{"zipf1.2-256", workload.ZipfConfig{
			Accounts: 256, Theta: 1.2, RMWFrac: 0.2,
			Amount: contentionAmount, Seed: uint64(seed)}},
		{"hotspot-64", workload.ZipfConfig{
			Accounts: 64, Theta: 0.9, HotFrac: 0.35, RMWFrac: 0.2,
			Amount: contentionAmount, Seed: uint64(seed)}},
	}
}

// contentionResult is one run's outcome.
type contentionResult struct {
	// tps is consensus-side committed throughput.
	tps float64
	// stats aggregates the observer machine's lifetime counters.
	stats exec.Stats
	// roots maps height → state root, recorded from every executing
	// node; rootsAgree is false if any two nodes disagreed at a height.
	roots      map[uint64]crypto.Hash
	rootsAgree bool
	// ledgerOK reports that every persisted ledger entry's StateRoot
	// matches the root the executors computed at that height.
	ledgerOK bool
}

// runContention runs one contention deployment: a P-HS consensus group
// whose four nodes each execute committed blocks on their own account
// machine, plus a small zone of full nodes — one persisting the chain
// with state roots — under a skewed semantic workload. serial selects
// the reference serial committer on every node.
func runContention(o Options, zipf workload.ZipfConfig, serial bool) (contentionResult, error) {
	d := o.deployment()
	d.System, d.Exec = SysPHS, ExecParallel
	if serial {
		d.Exec = ExecSerial
	}
	// One small zone of full nodes; the first persists the chain (with
	// state roots) to an in-memory ledger, and every one executes on its
	// own machine, so the persisted chain is cross-checked against the
	// consensus-side executors.
	d.Zones, d.FullNodes, d.Ledger = 1, 2, ledger.New()
	d.Offered, d.Stop = 3000, d.joinWindow()+5*time.Second
	if o.Quick {
		d.Offered, d.Stop = 1200, d.joinWindow()+2*time.Second
	}
	d.Ops = workload.NewZipfOps(zipf).Op

	res := contentionResult{
		roots:      make(map[uint64]crypto.Hash),
		rootsAgree: true,
		ledgerOK:   true,
	}
	// Every executing node's root at a height is cross-checked: the
	// committed sequence is deterministic, so disagreement means the
	// execution plane diverged.
	d.OnExecute = func(r exec.Result) {
		if prev, ok := res.roots[r.Height]; ok {
			if prev != r.StateRoot {
				res.rootsAgree = false
			}
			return
		}
		res.roots[r.Height] = r.StateRoot
	}
	col := d.measured()
	d.Collector = col
	b, err := Build(d)
	if err != nil {
		return res, err
	}
	b.Run(d.Stop)

	res.tps = col.Throughput()
	res.stats = b.Machines[0].Stats()
	for h := uint64(1); h <= uint64(d.Ledger.Len()); h++ {
		e, err := d.Ledger.Get(h)
		if err != nil {
			return res, err
		}
		if root, ok := res.roots[e.Height]; !ok || root != e.StateRoot {
			res.ledgerOK = false
		}
	}
	return res, nil
}

// Contention sweeps workload skew against the execution plane, running
// every scenario twice — once with the two-phase parallel committer and
// once with the serial reference — and cross-checks that both produce
// identical state roots at every height. The dependency-level width
// columns report the parallelism the leveler exposes (the meaningful
// measure of the Octopus-style committer even on a single-core host):
// conflict-free workloads collapse to one wide level per block, a
// global hotspot serializes into many narrow ones.
func Contention(o Options) ([]*stats.Table, error) {
	tbl := &stats.Table{
		Title: "Contention: parallel vs serial execution under skew (rows: " +
			"1=parallel tx/s, 2=serial tx/s, 3=mean level width, 4=max width, " +
			"5=abort %, 6=roots agree (1=yes), 7=state-root fingerprint)",
		XLabel: "row",
	}
	for _, spec := range contentionScenarios(o.seed()) {
		par, err := runContention(o, spec.zipf, false)
		if err != nil {
			return nil, fmt.Errorf("contention %s (parallel): %w", spec.name, err)
		}
		ser, err := runContention(o, spec.zipf, true)
		if err != nil {
			return nil, fmt.Errorf("contention %s (serial): %w", spec.name, err)
		}

		// The committed sequence is seed-determined and committer-
		// independent, so the serial run must reproduce the parallel
		// run's root at every common height.
		agree := par.rootsAgree && ser.rootsAgree && par.ledgerOK && ser.ledgerOK
		var lastRoot crypto.Hash
		var lastHeight uint64
		for h, root := range par.roots {
			sroot, ok := ser.roots[h]
			if ok && sroot != root {
				agree = false
			}
			if ok && h > lastHeight {
				lastHeight, lastRoot = h, root
			}
		}

		st := par.stats
		abortPct := 0.0
		if st.Txs > 0 {
			abortPct = 100 * float64(st.Aborted) / float64(st.Txs)
		}
		s := &stats.Series{Name: spec.name}
		s.Add(1, par.tps)
		s.Add(2, ser.tps)
		s.Add(3, st.MeanWidth())
		s.Add(4, float64(st.MaxWidth))
		s.Add(5, abortPct)
		if agree {
			s.Add(6, 1)
		} else {
			s.Add(6, 0)
		}
		s.Add(7, float64(binary.BigEndian.Uint32(lastRoot[:4])))
		tbl.Series = append(tbl.Series, s)
	}
	return []*stats.Table{tbl}, nil
}
