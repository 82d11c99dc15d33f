// Package rtnet is the real-time runtime: it hosts an env.Handler over TCP
// so the same protocol state machines that run in the simulator drive real
// deployments (cmd/predis-node, cmd/predis-client).
//
// Wire format per connection: a 4-byte big-endian hello carrying the
// sender's NodeID, then a stream of wire.Marshal frames. All callbacks
// into the handler are serialized by a mutex, honoring the env contract;
// timers run through time.AfterFunc and take the same lock.
//
// Lifecycle: New binds the listener (so Addr is known immediately and
// peers can be registered with AddPeer before any traffic), Start launches
// the accept loop and calls the handler's Start, Close tears everything
// down and waits for the runtime's goroutines.
package rtnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"predis/internal/env"
	"predis/internal/wire"
)

// Config parameterizes a runtime.
type Config struct {
	// Self is this node's ID.
	Self wire.NodeID
	// Listen is the TCP address to accept peers on; empty means
	// client-only (no inbound connections).
	Listen string
	// Peers maps node IDs to dialable addresses; more can be added with
	// AddPeer before Start. Outbound connections are dialed lazily on
	// first Send and redialed with backoff.
	Peers map[wire.NodeID]string
	// LogWriter receives Logf output when non-nil.
	LogWriter io.Writer
	// Redial is the backoff policy for outbound redials. The zero value
	// selects env.DefaultBackoff(100ms) capped at 5s: 100ms doubling to
	// 1.6s nominal with ±25% jitter, hard-capped at 5s, so a flapping
	// peer is not hammered and reconnecting peers do not stampede in
	// lockstep.
	Redial env.Backoff
}

const (
	// sendQueue bounds per-peer outbound queues (messages); overflow
	// drops, which the env contract allows.
	sendQueue = 4096
	// dialTimeout bounds connection attempts.
	dialTimeout = 3 * time.Second
)

// Runtime hosts one handler.
type Runtime struct {
	cfg     Config
	handler env.Handler

	mu  sync.Mutex // serializes every handler callback
	rng *rand.Rand

	listener net.Listener

	connMu  sync.Mutex
	peers   map[wire.NodeID]string
	conns   map[wire.NodeID]*peerConn
	inbound map[net.Conn]struct{}

	stop chan struct{}
	wg   sync.WaitGroup

	started bool
	closed  bool
}

type peerConn struct {
	id    wire.NodeID
	addr  string
	queue chan []byte
}

// New creates a runtime for the handler and binds the listener (when
// configured); call Start to begin processing.
func New(cfg Config, h env.Handler) (*Runtime, error) {
	if h == nil {
		return nil, errors.New("rtnet: handler is required")
	}
	if cfg.Redial.Base <= 0 {
		cfg.Redial = env.DefaultBackoff(100 * time.Millisecond)
		cfg.Redial.Max = 5 * time.Second
	}
	r := &Runtime{
		cfg:     cfg,
		handler: h,
		rng:     rand.New(rand.NewSource(int64(cfg.Self+1) * 0x5851f42d4c957f2d)),
		peers:   make(map[wire.NodeID]string),
		conns:   make(map[wire.NodeID]*peerConn),
		inbound: make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		r.peers[id] = addr
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("rtnet: listen %s: %w", cfg.Listen, err)
		}
		r.listener = ln
	}
	return r, nil
}

// AddPeer registers (or updates) a peer address. Call before traffic to
// that peer starts; an existing connection is not redialed.
func (r *Runtime) AddPeer(id wire.NodeID, addr string) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	r.peers[id] = addr
}

// Start launches the accept loop and invokes the handler's Start. It is
// an error to call it twice.
func (r *Runtime) Start() error {
	if r.started {
		return errors.New("rtnet: already started")
	}
	r.started = true
	if r.listener != nil {
		r.wg.Add(1)
		go r.acceptLoop(r.listener)
	}
	r.mu.Lock()
	r.handler.Start((*rtContext)(r))
	r.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (useful with ":0"), or nil for a
// client-only runtime.
func (r *Runtime) Addr() net.Addr {
	if r.listener == nil {
		return nil
	}
	return r.listener.Addr()
}

// Close shuts the runtime down and waits for its goroutines. Idempotent.
func (r *Runtime) Close() {
	r.connMu.Lock()
	if r.closed {
		r.connMu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	if r.listener != nil {
		_ = r.listener.Close()
	}
	for c := range r.inbound {
		_ = c.Close()
	}
	for _, pc := range r.conns {
		close(pc.queue)
	}
	r.conns = make(map[wire.NodeID]*peerConn)
	r.connMu.Unlock()
	r.wg.Wait()
}

func (r *Runtime) logf(format string, args ...any) {
	if w := r.cfg.LogWriter; w != nil {
		fmt.Fprintf(w, "rtnet[%d] "+format+"\n", append([]any{r.cfg.Self}, args...)...)
	}
}

// acceptLoop accepts inbound peers.
func (r *Runtime) acceptLoop(ln net.Listener) {
	defer r.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed (or fatal error): stop accepting
		}
		r.connMu.Lock()
		if r.closed {
			r.connMu.Unlock()
			_ = c.Close()
			return
		}
		r.inbound[c] = struct{}{}
		r.connMu.Unlock()
		r.wg.Add(1)
		go r.readLoop(c)
	}
}

// readLoop reads the hello then dispatches frames to the handler.
func (r *Runtime) readLoop(c net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.connMu.Lock()
		delete(r.inbound, c)
		r.connMu.Unlock()
		_ = c.Close()
	}()
	var hello [4]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return
	}
	from := wire.NodeID(binary.BigEndian.Uint32(hello[:]))
	header := make([]byte, wire.FrameOverhead)
	for {
		if _, err := io.ReadFull(c, header); err != nil {
			return
		}
		bodyLen := int(binary.BigEndian.Uint32(header[2:6]))
		if bodyLen > wire.MaxBodyLen {
			r.logf("oversize frame from %d", from)
			return
		}
		frame := make([]byte, wire.FrameOverhead+bodyLen)
		copy(frame, header)
		if _, err := io.ReadFull(c, frame[wire.FrameOverhead:]); err != nil {
			return
		}
		msg, _, err := wire.Unmarshal(frame)
		if err != nil {
			r.logf("decode from %d: %v", from, err)
			continue
		}
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		r.handler.Receive(from, msg)
		r.mu.Unlock()
	}
}

// peer returns (creating if needed) the outbound connection state.
func (r *Runtime) peer(id wire.NodeID) *peerConn {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closed {
		return nil
	}
	if pc, ok := r.conns[id]; ok {
		return pc
	}
	addr, ok := r.peers[id]
	if !ok {
		return nil
	}
	pc := &peerConn{id: id, addr: addr, queue: make(chan []byte, sendQueue)}
	r.conns[id] = pc
	r.wg.Add(1)
	go r.writeLoop(pc)
	return pc
}

// writeLoop dials (with the configured redial backoff) and drains the
// peer's queue.
func (r *Runtime) writeLoop(pc *peerConn) {
	defer r.wg.Done()
	var c net.Conn
	defer func() {
		if c != nil {
			_ = c.Close()
		}
	}()
	// Per-loop jitter source: writeLoop runs on its own goroutine, so it
	// must not share the handler's rng. Seeded per (self, peer) pair so
	// two runtimes redialing the same peer stay decorrelated.
	rng := rand.New(rand.NewSource(
		int64(r.cfg.Self+1)*0x5851f42d4c957f2d ^ int64(pc.id+1)*0x2545f4914f6cdd1d))
	attempt := 0
	for frame := range pc.queue {
		for c == nil {
			select {
			case <-r.stop:
				return
			default:
			}
			conn, err := net.DialTimeout("tcp", pc.addr, dialTimeout)
			if err != nil {
				delay := r.cfg.Redial.Delay(attempt, rng)
				attempt++
				r.logf("dial %d@%s: %v (retry in %v)", pc.id, pc.addr, err, delay)
				select {
				case <-time.After(delay):
				case <-r.stop:
					return
				}
				continue
			}
			var hello [4]byte
			binary.BigEndian.PutUint32(hello[:], uint32(r.cfg.Self))
			if _, err := conn.Write(hello[:]); err != nil {
				_ = conn.Close()
				continue
			}
			c = conn
			attempt = 0
		}
		if _, err := c.Write(frame); err != nil {
			r.logf("write to %d: %v", pc.id, err)
			_ = c.Close()
			c = nil
			// The frame is lost; the env contract permits message loss.
		}
	}
}

// rtContext implements env.Context over the runtime.
type rtContext Runtime

var _ env.Context = (*rtContext)(nil)

// ID implements env.Context.
func (c *rtContext) ID() wire.NodeID { return c.cfg.Self }

// Now implements env.Context.
func (c *rtContext) Now() time.Time { return time.Now() }

// Rand implements env.Context.
func (c *rtContext) Rand() *rand.Rand { return c.rng }

// Logf implements env.Context.
func (c *rtContext) Logf(format string, args ...any) {
	(*Runtime)(c).logf(format, args...)
}

// Send implements env.Context.
func (c *rtContext) Send(to wire.NodeID, m wire.Message) {
	r := (*Runtime)(c)
	if to == c.cfg.Self {
		// Local delivery must not run inline (the caller holds the lock);
		// hand it to a timer goroutine.
		c.After(0, func() { r.handler.Receive(to, m) })
		return
	}
	pc := r.peer(to)
	if pc == nil {
		r.logf("send to unknown peer %d", to)
		return
	}
	frame := wire.Marshal(m)
	select {
	case pc.queue <- frame:
	default:
		r.logf("queue to %d full; dropping %s", to, wire.TypeName(m.Type()))
	}
}

// After implements env.Context.
func (c *rtContext) After(d time.Duration, fn func()) env.Timer {
	r := (*Runtime)(c)
	t := &rtTimer{}
	t.t = time.AfterFunc(d, func() {
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if !t.stopped {
			fn()
		}
	})
	return t
}

type rtTimer struct {
	t       *time.Timer
	stopped bool
}

// Stop implements env.Timer.
func (t *rtTimer) Stop() bool {
	t.stopped = true
	return t.t.Stop()
}

// Inject delivers a message to the handler as if it arrived from the given
// node; tools use it to bridge non-runtime inputs.
func (r *Runtime) Inject(from wire.NodeID, m wire.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handler.Receive(from, m)
}
