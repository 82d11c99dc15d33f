package multizone

import (
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// ConsensusHost wraps a consensus node with a Multi-Zone distributor:
// consensus traffic routes to the node, zone-plane traffic to the
// distributor, and the node's bundle/block hooks feed the distributor.
type ConsensusHost struct {
	Node *node.Node
	Dist *Distributor
}

var _ env.Handler = (*ConsensusHost)(nil)

// HostConfig assembles a Multi-Zone consensus node.
type HostConfig struct {
	// NC, F, Self, Signer, Engine: as in node.Config.
	NC, F  int
	Self   wire.NodeID
	Signer crypto.Signer
	Engine node.EngineKind
	// BundleSize / BundleInterval: Predis producer parameters.
	BundleSize     int
	BundleInterval time.Duration
	ViewTimeout    time.Duration
	// Stream enables streaming commit (see node.Config): the distributor
	// additionally pushes each proposed block to its subscribers the
	// moment consensus first handles it — before the ordering decision —
	// and retracts pushes whose proposal the engine evicted.
	Stream bool
	// Pipeline is the PBFT in-flight instance window (see pbft.Config);
	// meaningful with Stream.
	Pipeline int
	// Striper must match the full nodes'.
	Striper *Striper
	// ReplyToClients / OnCommit: measurement hooks as in node.Config.
	ReplyToClients bool
	OnCommit       func(height uint64, txs int)
	// Trace, when non-nil, records block/bundle lifecycle stages across
	// the node and the distributor. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives per-node counters from the wrapped
	// Predis component.
	Metrics *obs.Registry
	// Executor / ExecSerial / OnExecute: execution plane, as in
	// node.Config (each host owns its own exec.Machine).
	Executor   *exec.Machine
	ExecSerial bool
	OnExecute  func(r exec.Result)
}

// NewConsensusHost builds the host. Multi-Zone always runs Predis (the
// paper's deployment: Predis on BFT-SMaRt with Multi-Zone distribution).
func NewConsensusHost(cfg HostConfig) (*ConsensusHost, error) {
	// Consensus hosts accept every relayer and never expire subscriptions.
	dist := NewDistributor(cfg.Self, cfg.NC, cfg.Striper, 0)
	dist.SetTrace(cfg.Trace)
	n, err := node.New(node.Config{
		Mode:           node.ModePredis,
		Engine:         cfg.Engine,
		NC:             cfg.NC,
		F:              cfg.F,
		Self:           cfg.Self,
		Signer:         cfg.Signer,
		BundleSize:     cfg.BundleSize,
		BundleInterval: cfg.BundleInterval,
		ViewTimeout:    cfg.ViewTimeout,
		Stream:         cfg.Stream,
		Pipeline:       cfg.Pipeline,
		ReplyToClients: cfg.ReplyToClients,
		StripeRoot:     dist.StripeRoot,
		OnBundleStored: dist.OnBundleStored,
		OnBlockCommit:  dist.OnBlockCommit,
		OnBlockPropose: dist.OnBlockPropose,
		OnBlockEvict:   dist.OnBlockEvict,
		Trace:          cfg.Trace,
		Metrics:        cfg.Metrics,
		Executor:       cfg.Executor,
		ExecSerial:     cfg.ExecSerial,
		OnExecute:      cfg.OnExecute,
		OnCommit: func(height uint64, txs []*types.Transaction) {
			if cfg.OnCommit != nil {
				cfg.OnCommit(height, len(txs))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return &ConsensusHost{Node: n, Dist: dist}, nil
}

// Start implements env.Handler.
func (h *ConsensusHost) Start(ctx env.Context) {
	h.Dist.Start(ctx)
	h.Node.Start(ctx)
}

var _ env.Restartable = (*ConsensusHost)(nil)

// OnRestart implements env.Restartable: the consensus node re-arms its
// timers and catches up; the distributor is stateless between sends and
// keeps its subscriber set (relayers re-subscribe if they expired us).
func (h *ConsensusHost) OnRestart() { h.Node.OnRestart() }

// Receive implements env.Handler.
func (h *ConsensusHost) Receive(from wire.NodeID, m wire.Message) {
	if m.Type()&0xff00 == wire.TypeRangeZone {
		h.Dist.Receive(from, m)
		return
	}
	if req, ok := m.(*core.BundleRequest); ok {
		// Bundle pulls from full nodes are served by the Predis mempool.
		h.Node.Predis().Receive(from, req)
		return
	}
	h.Node.Receive(from, m)
}
