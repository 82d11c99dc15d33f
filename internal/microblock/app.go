package microblock

import (
	"errors"
	"fmt"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/types"
	"predis/internal/wire"
)

// Scheme selects the availability primitive.
type Scheme int

// Schemes.
const (
	// SchemeNarwhal: reliable broadcast, n_c−f acks per microblock,
	// production chained on the previous certificate.
	SchemeNarwhal Scheme = iota + 1
	// SchemeStratus: provably available broadcast, f+1 acks, unchained
	// production.
	SchemeStratus
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeNarwhal:
		return "Narwhal"
	case SchemeStratus:
		return "Stratus"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// DefaultMaxIDs is the identifier cap per proposal; 1000 is the default of
// both open-source systems per §V-A.
const DefaultMaxIDs = 1000

// certTimeout bounds how long a certificate waits for a piggyback before
// being broadcast standalone.
const certTimeout = 100 * time.Millisecond

// Options configures an App.
type Options struct {
	Scheme Scheme
	// NC and F describe the consensus group; IDs 0..NC-1.
	NC, F int
	// Self is this node's ID.
	Self wire.NodeID
	// Signer signs microblocks and acks.
	Signer crypto.Signer
	// MBSize is the transaction cap per microblock (paper: 50).
	MBSize int
	// MBInterval is the production tick.
	MBInterval time.Duration
	// OnCommit receives committed transactions in order.
	OnCommit func(height uint64, txs []*types.Transaction)
}

// App is the shared-mempool application (Narwhal or Stratus flavour). It
// implements consensus.Application and env-style message handling, and
// must run on a node's serialized executor.
type App struct {
	opts  Options
	ctx   env.Context
	peers []wire.NodeID

	queue []*types.Transaction

	store     map[crypto.Hash]*Microblock
	certified map[crypto.Hash]*Cert
	certOrder []crypto.Hash
	committed map[crypto.Hash]struct{}
	inflight  map[crypto.Hash]uint64

	// producer state
	nextSeq     uint64
	outstanding crypto.Hash // digest awaiting certification (Narwhal)
	hasOutst    bool
	ackSets     map[crypto.Hash]*Cert // partial certs being collected
	lastCert    *Cert                 // to piggyback on the next microblock
	certCarried bool

	lastCommitted uint64
	engine        consensus.Engine

	// stats
	produced  uint64
	txsCommit uint64
}

var (
	_ consensus.Application  = (*App)(nil)
	_ consensus.WorkReporter = (*App)(nil)
)

// New builds the app.
func New(opts Options) (*App, error) {
	if opts.Scheme != SchemeNarwhal && opts.Scheme != SchemeStratus {
		return nil, fmt.Errorf("microblock: unknown scheme %d", opts.Scheme)
	}
	if opts.NC <= 0 || opts.F < 0 || opts.Signer == nil || opts.MBSize <= 0 {
		return nil, errors.New("microblock: NC, Signer, and MBSize are required")
	}
	if opts.MBInterval <= 0 {
		opts.MBInterval = 20 * time.Millisecond
	}
	peers := make([]wire.NodeID, opts.NC)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	return &App{
		opts:      opts,
		peers:     peers,
		store:     make(map[crypto.Hash]*Microblock),
		certified: make(map[crypto.Hash]*Cert),
		committed: make(map[crypto.Hash]struct{}),
		inflight:  make(map[crypto.Hash]uint64),
		ackSets:   make(map[crypto.Hash]*Cert),
	}, nil
}

// threshold returns the ack quorum for the scheme.
func (a *App) threshold() int {
	if a.opts.Scheme == SchemeNarwhal {
		return a.opts.NC - a.opts.F
	}
	return a.opts.F + 1
}

// SetEngine wires the consensus engine for pokes.
func (a *App) SetEngine(e consensus.Engine) { a.engine = e }

// Stats returns (microblocks produced, transactions committed).
func (a *App) Stats() (produced, committed uint64) { return a.produced, a.txsCommit }

// Start arms the production timer.
func (a *App) Start(ctx env.Context) {
	a.ctx = ctx
	a.armTick()
}

func (a *App) armTick() {
	a.ctx.After(a.opts.MBInterval, func() {
		a.tryProduce()
		a.armTick()
	})
}

// SubmitTx enqueues a client transaction.
func (a *App) SubmitTx(tx *types.Transaction) {
	a.queue = append(a.queue, tx)
	if len(a.queue) >= a.opts.MBSize {
		a.tryProduce()
	}
}

// tryProduce emits the next microblock when allowed: Narwhal requires the
// previous one to be certified first; Stratus produces freely.
func (a *App) tryProduce() {
	for len(a.queue) > 0 {
		if a.opts.Scheme == SchemeNarwhal && a.hasOutst {
			return // RBC chaining: wait for the certificate
		}
		n := a.opts.MBSize
		if n > len(a.queue) {
			n = len(a.queue)
		}
		txs := a.queue[:n:n]
		a.queue = a.queue[n:]
		a.nextSeq++
		mb := &Microblock{Producer: a.opts.Self, Seq: a.nextSeq, Txs: txs}
		if a.lastCert != nil && !a.certCarried {
			mb.PrevCert = a.lastCert
			a.certCarried = true
		}
		digest := mb.Digest()
		mb.Sig = a.opts.Signer.Sign(digest)
		a.store[digest] = mb
		a.produced++
		// Seed the ack set with our own signature.
		cert := &Cert{Digest: digest}
		cert.Signers = append(cert.Signers, a.opts.Self)
		cert.Sigs = append(cert.Sigs, a.opts.Signer.Sign(ackDigest(digest)))
		a.ackSets[digest] = cert
		if a.opts.Scheme == SchemeNarwhal {
			a.outstanding = digest
			a.hasOutst = true
		}
		env.Multicast(a.ctx, a.peers, mb)
	}
}

// Receive handles data-plane messages (routed by the node layer).
func (a *App) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *Microblock:
		a.onMicroblock(from, msg)
	case *Ack:
		a.onAck(from, msg)
	case *CertMsg:
		a.learnCert(msg.Cert, true)
	case *MBRequest:
		a.onRequest(from, msg)
	case *MBResponse:
		for _, mb := range msg.Microblocks {
			a.onMicroblock(from, mb)
		}
	default:
		a.ctx.Logf("microblock: unexpected %s from %d", wire.TypeName(m.Type()), from)
	}
}

func (a *App) onMicroblock(from wire.NodeID, mb *Microblock) {
	if int(mb.Producer) >= a.opts.NC {
		return
	}
	digest := mb.Digest()
	if mb.PrevCert != nil {
		a.learnCert(mb.PrevCert, true)
	}
	if _, ok := a.store[digest]; ok {
		return
	}
	if !a.opts.Signer.Verify(int(mb.Producer), digest, mb.Sig) {
		return
	}
	a.store[digest] = mb
	// Acknowledge to the producer.
	if mb.Producer != a.opts.Self {
		ack := &Ack{Digest: digest, Replica: a.opts.Self}
		ack.Sig = a.opts.Signer.Sign(ackDigest(digest))
		a.ctx.Send(mb.Producer, ack)
	}
	a.poke() // a pending proposal may now validate
}

func (a *App) onAck(from wire.NodeID, m *Ack) {
	if m.Replica != from || int(m.Replica) >= a.opts.NC {
		return
	}
	cert, ok := a.ackSets[m.Digest]
	if !ok {
		return // not ours or already certified
	}
	if !a.opts.Signer.Verify(int(m.Replica), ackDigest(m.Digest), m.Sig) {
		return
	}
	for _, id := range cert.Signers {
		if id == m.Replica {
			return
		}
	}
	cert.Signers = append(cert.Signers, m.Replica)
	cert.Sigs = append(cert.Sigs, m.Sig)
	if len(cert.Signers) >= a.threshold() {
		delete(a.ackSets, m.Digest)
		a.onCertified(cert)
	}
}

// onCertified handles a freshly formed certificate for one of our own
// microblocks.
func (a *App) onCertified(cert *Cert) {
	a.learnCert(cert, false)
	if a.hasOutst && cert.Digest == a.outstanding {
		a.hasOutst = false
	}
	a.lastCert = cert
	a.certCarried = false
	switch a.opts.Scheme {
	case SchemeStratus:
		// PAB: ship the proof immediately so the leader can propose.
		env.Multicast(a.ctx, a.peers, &CertMsg{Cert: cert})
		a.certCarried = true
	case SchemeNarwhal:
		// RBC: the next microblock piggybacks it; a timer covers the tail.
		a.tryProduce()
		if !a.certCarried {
			d := cert.Digest
			a.ctx.After(certTimeout, func() {
				if a.lastCert != nil && a.lastCert.Digest == d && !a.certCarried {
					env.Multicast(a.ctx, a.peers, &CertMsg{Cert: cert})
					a.certCarried = true
				}
			})
		}
	}
}

// learnCert records a certificate. verify controls signature checking
// (skipped for certs we assembled ourselves).
func (a *App) learnCert(cert *Cert, verify bool) {
	if _, ok := a.certified[cert.Digest]; ok {
		return
	}
	if _, ok := a.committed[cert.Digest]; ok {
		return
	}
	if verify && !cert.Verify(a.opts.Signer, a.opts.NC, a.threshold()) {
		return
	}
	a.certified[cert.Digest] = cert
	a.certOrder = append(a.certOrder, cert.Digest)
	a.poke()
}

func (a *App) onRequest(from wire.NodeID, m *MBRequest) {
	resp := &MBResponse{}
	for _, id := range m.IDs {
		if mb, ok := a.store[id]; ok {
			resp.Microblocks = append(resp.Microblocks, mb)
		}
	}
	if len(resp.Microblocks) > 0 {
		a.ctx.Send(from, resp)
	}
}

func (a *App) poke() {
	if a.engine != nil {
		a.engine.Poke()
	}
}

// HasPendingWork implements consensus.WorkReporter.
func (a *App) HasPendingWork() bool {
	if len(a.queue) > 0 {
		return true
	}
	for _, id := range a.certOrder {
		if _, done := a.committed[id]; !done {
			if _, fly := a.inflight[id]; !fly {
				return true
			}
		}
	}
	return false
}

// --- consensus.Application ---

// BuildProposal implements consensus.Application: propose up to DefaultMaxIDs
// certified, uncommitted, not-in-flight identifiers.
func (a *App) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	a.releaseInflight()
	ids := make([]crypto.Hash, 0, DefaultMaxIDs)
	for _, id := range a.certOrder {
		if len(ids) >= DefaultMaxIDs {
			break
		}
		if _, done := a.committed[id]; done {
			continue
		}
		if _, fly := a.inflight[id]; fly {
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, crypto.ZeroHash, false
	}
	for _, id := range ids {
		a.inflight[id] = height
	}
	payload := &IDList{Height: height, IDs: ids}
	return payload, payload.Digest(), true
}

// releaseInflight frees identifiers stranded in abandoned proposals: any
// id proposed at a height that has since committed (without including it)
// is proposable again.
func (a *App) releaseInflight() {
	for id, h := range a.inflight {
		if h <= a.lastCommitted {
			delete(a.inflight, id)
		}
	}
}

// ValidateProposal implements consensus.Application.
func (a *App) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	list, ok := payload.(*IDList)
	if !ok {
		return crypto.ZeroHash, fmt.Errorf("microblock: payload is %T", payload)
	}
	if list.Height != height {
		return crypto.ZeroHash, fmt.Errorf("microblock: payload height %d at %d", list.Height, height)
	}
	if len(list.IDs) == 0 || len(list.IDs) > DefaultMaxIDs {
		return crypto.ZeroHash, fmt.Errorf("microblock: %d ids out of bounds", len(list.IDs))
	}
	var missing []crypto.Hash
	seen := make(map[crypto.Hash]struct{}, len(list.IDs))
	for _, id := range list.IDs {
		if _, dup := seen[id]; dup {
			return crypto.ZeroHash, errors.New("microblock: duplicate id in proposal")
		}
		seen[id] = struct{}{}
		if _, done := a.committed[id]; done {
			return crypto.ZeroHash, errors.New("microblock: proposal re-includes committed id")
		}
		if _, have := a.store[id]; !have {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		// Certificates guarantee availability; fetch from any peer.
		env.Multicast(a.ctx, a.peers, &MBRequest{IDs: missing})
		return crypto.ZeroHash, consensus.ErrPending
	}
	return list.Digest(), nil
}

// OnCommit implements consensus.Application.
func (a *App) OnCommit(height uint64, payload wire.Message) {
	list, ok := payload.(*IDList)
	if !ok {
		return
	}
	var txs []*types.Transaction
	for _, id := range list.IDs {
		if _, done := a.committed[id]; done {
			continue
		}
		mb := a.store[id]
		if mb == nil {
			a.ctx.Logf("microblock: commit with unfetched id %s", id.Short())
			continue
		}
		a.committed[id] = struct{}{}
		delete(a.certified, id)
		delete(a.inflight, id)
		txs = append(txs, mb.Txs...)
	}
	a.lastCommitted = height
	a.txsCommit += uint64(len(txs))
	a.compactCertOrder()
	if a.opts.OnCommit != nil {
		a.opts.OnCommit(height, txs)
	}
	a.poke()
}

// compactCertOrder drops committed ids from the proposal queue when the
// dead prefix grows large.
func (a *App) compactCertOrder() {
	if len(a.certOrder) < 256 {
		return
	}
	kept := a.certOrder[:0]
	for _, id := range a.certOrder {
		if _, done := a.committed[id]; !done {
			kept = append(kept, id)
		}
	}
	a.certOrder = kept
}
