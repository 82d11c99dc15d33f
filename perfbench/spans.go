package main

import (
	"reflect"
	"strings"
	"time"

	"predis/internal/compute"
	"predis/internal/env"
	"predis/internal/wire"
)

// role is what kind of node a wrapped handler is.
type role uint8

const (
	roleHost role = iota
	roleFull
	roleClient
)

// Layers the spans are attributed to. A host's messages go to the
// package that defines the message type (client submissions to core,
// whose mempool admits them); everything a full node does is
// multizone.fullnode and everything a client does is workload; a
// host's timer callbacks are timers.host.
var layerNames = []string{
	"core", "pbft", "hotstuff", "multizone.host", "multizone.fullnode", "workload", "timers.host",
}

const (
	layerCore = iota
	layerPBFT
	layerHotStuff
	layerZoneHost
	layerZoneFull
	layerWorkload
	layerTimersHost
	numLayers
)

// spanTable accumulates host wall time and call counts per layer, plus
// the largest lateness of a client timer against its due time.
type spanTable struct {
	wall   [numLayers]time.Duration
	calls  [numLayers]uint64
	genLag time.Duration
	// byType caches the layer of each message type seen at a host.
	byType map[reflect.Type]int
}

func newSpanTable() *spanTable {
	return &spanTable{byType: make(map[reflect.Type]int)}
}

func (s *spanTable) add(layer int, d time.Duration) {
	s.wall[layer] += d
	s.calls[layer]++
}

// total is the wall time spent inside every wrapped call.
func (s *spanTable) total() time.Duration {
	var t time.Duration
	for _, d := range s.wall {
		t += d
	}
	return t
}

// hostLayer maps a message delivered to a consensus host to its layer
// by the package that defines the message type.
func (s *spanTable) hostLayer(m wire.Message) int {
	t := reflect.TypeOf(m)
	if l, ok := s.byType[t]; ok {
		return l
	}
	pt := t
	if pt.Kind() == reflect.Pointer {
		pt = pt.Elem()
	}
	pkg := pt.PkgPath()
	pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
	l := layerCore
	switch pkg {
	case "pbft":
		l = layerPBFT
	case "hotstuff":
		l = layerHotStuff
	case "multizone":
		l = layerZoneHost
	}
	s.byType[t] = l
	return l
}

// spanned wraps a node's handler and times every call into it: each
// Receive, the restart hook, and every timer callback scheduled
// through the context it hands the inner handler. It adds no events,
// sends, or draws, so the run it wraps is unchanged.
type spanned struct {
	inner env.Handler
	role  role
	spans *spanTable
}

var (
	_ env.Handler     = (*spanned)(nil)
	_ env.Restartable = (*spanned)(nil)
)

func (h *spanned) msgLayer(m wire.Message) int {
	switch h.role {
	case roleFull:
		return layerZoneFull
	case roleClient:
		return layerWorkload
	}
	return h.spans.hostLayer(m)
}

func (h *spanned) timerLayer() int {
	switch h.role {
	case roleFull:
		return layerZoneFull
	case roleClient:
		return layerWorkload
	}
	return layerTimersHost
}

// Start implements env.Handler.
func (h *spanned) Start(ctx env.Context) {
	start := time.Now()
	h.inner.Start(&spannedCtx{Context: ctx, h: h})
	h.spans.add(h.timerLayer(), time.Since(start))
}

// Receive implements env.Handler.
func (h *spanned) Receive(from wire.NodeID, m wire.Message) {
	l := h.msgLayer(m)
	start := time.Now()
	h.inner.Receive(from, m)
	h.spans.add(l, time.Since(start))
}

// OnRestart implements env.Restartable, forwarding to the inner handler
// when it has a restart hook.
func (h *spanned) OnRestart() {
	r, ok := h.inner.(env.Restartable)
	if !ok {
		return
	}
	start := time.Now()
	r.OnRestart()
	h.spans.add(h.timerLayer(), time.Since(start))
}

// spannedCtx is the context a wrapped handler sees: the runtime's own,
// with After timing the callback and the compute pool still reachable.
type spannedCtx struct {
	env.Context
	h *spanned
}

// ComputePool forwards the runtime's compute-pool accessor, which
// handlers reach through compute.PoolOf(ctx).
func (c *spannedCtx) ComputePool() *compute.Pool { return compute.PoolOf(c.Context) }

// After implements env.Context.
func (c *spannedCtx) After(d time.Duration, fn func()) env.Timer {
	due := c.Context.Now().Add(max(d, 0))
	return c.Context.After(d, func() {
		if c.h.role == roleClient {
			c.h.spans.genLag = max(c.h.spans.genLag, c.Context.Now().Sub(due))
		}
		start := time.Now()
		fn()
		c.h.spans.add(c.h.timerLayer(), time.Since(start))
	})
}
