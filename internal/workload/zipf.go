package workload

import (
	"sort"

	"predis/internal/types"
	"predis/internal/wire"
)

// ZipfConfig parameterizes a deterministic skewed-access operation
// generator for the execution plane (internal/exec). Account popularity
// follows a Zipf distribution with exponent Theta over Accounts keys;
// Theta 0 degrades to uniform. The generator is a pure function of
// (Seed, client, seq), so two runs draw byte-identical operation
// streams.
type ZipfConfig struct {
	// Accounts is the key-space size (accounts 0..Accounts-1).
	Accounts int
	// Theta is the Zipf exponent: 0 = uniform, ~0.9 = YCSB-like skew,
	// >1 concentrates most traffic on a handful of keys.
	Theta float64
	// HotFrac, when positive, redirects that fraction of transfers to
	// account 0 — a single globally contended hotspot on top of the
	// Zipf skew.
	HotFrac float64
	// RMWFrac is the fraction of operations emitted as read-modify-write
	// (the rest are transfers).
	RMWFrac float64
	// Amount is the per-transfer amount (and RMW delta). Against the
	// executor's genesis balance it sets how quickly hot accounts drain
	// into deterministic aborts.
	Amount uint64
	// Seed perturbs every draw; same seed, same stream.
	Seed uint64
}

// ZipfOps draws semantic operations from a ZipfConfig.
type ZipfOps struct {
	cfg ZipfConfig
	// cum is the normalized cumulative popularity mass of accounts
	// 0..Accounts-1; a uniform [0,1) draw inverts it to an account.
	cum []float64
}

// NewZipfOps precomputes the inverse-CDF table. Accounts must be >= 2.
func NewZipfOps(cfg ZipfConfig) *ZipfOps {
	if cfg.Accounts < 2 {
		cfg.Accounts = 2
	}
	if cfg.Amount == 0 {
		cfg.Amount = 1
	}
	cum := make([]float64, cfg.Accounts)
	total := 0.0
	for k := 0; k < cfg.Accounts; k++ {
		total += zipfWeight(k, cfg.Theta)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &ZipfOps{cfg: cfg, cum: cum}
}

// zipfWeight is the unnormalized popularity of rank k: (k+1)^-theta.
func zipfWeight(k int, theta float64) float64 {
	if theta == 0 {
		return 1
	}
	w := 1.0
	base := 1.0 / float64(k+1)
	// Integer exponents cover the experiment grid; fractional thetas
	// interpolate linearly between the bracketing integer powers, which
	// preserves monotonicity — all the generator needs — without
	// importing math.Pow into the hot path.
	lo := int(theta)
	for i := 0; i < lo; i++ {
		w *= base
	}
	if frac := theta - float64(lo); frac > 0 {
		w *= 1 - frac + frac*base
	}
	return w
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix, so
// distinct (seed, client, seq, draw) tuples give independent-looking
// uint64s with no shared state between draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th unit-interval draw for (client, seq).
func (z *ZipfOps) draw(client wire.NodeID, seq uint64, i uint64) float64 {
	h := splitmix64(z.cfg.Seed ^ splitmix64(uint64(client)<<32^seq) ^ splitmix64(i))
	return float64(h>>11) / float64(1<<53)
}

// account inverts the cumulative table for one draw.
func (z *ZipfOps) account(u float64) uint64 {
	return uint64(sort.SearchFloat64s(z.cum, u))
}

// Op draws the semantic operation for one transaction. It is pure: the
// result depends only on (Seed, client, seq).
func (z *ZipfOps) Op(client wire.NodeID, seq uint64) types.Op {
	if z.draw(client, seq, 0) < z.cfg.RMWFrac {
		r := z.account(z.draw(client, seq, 1))
		w := z.account(z.draw(client, seq, 2))
		return types.Op{
			Kind:   types.OpRMW,
			Reads:  []uint64{r},
			Writes: []uint64{w},
			Delta:  z.cfg.Amount,
		}
	}
	from := z.account(z.draw(client, seq, 3))
	to := z.account(z.draw(client, seq, 4))
	if z.cfg.HotFrac > 0 && z.draw(client, seq, 5) < z.cfg.HotFrac {
		to = 0
	}
	if from == to {
		to = (to + 1) % uint64(z.cfg.Accounts)
	}
	return types.Op{Kind: types.OpTransfer, From: from, To: to, Amount: z.cfg.Amount}
}
