package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"predis/internal/stats"
	"predis/internal/wire"
)

// Span is one recorded stage interval on one node's timeline.
type Span struct {
	Stage Stage
	Key   uint64
	Node  wire.NodeID
	Start time.Time
	End   time.Time
	// Discarded marks a span terminated by Tracer.Discard: the tracked
	// work was abandoned (a speculatively distributed cursor block evicted
	// by a view change) rather than completed. Discarded spans appear in
	// exports flagged as such but are excluded from latency statistics.
	Discarded bool
	open      bool
}

// Duration returns the span length.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

type spanKey struct {
	stage Stage
	key   uint64
	node  wire.NodeID
}

type markKey struct {
	stage Stage
	key   uint64
}

// Tracer records block/transaction lifecycle spans. One tracer serves a
// whole simulation: every node records onto it with its own virtual-time
// stamps, and exports interleave all nodes on a shared timeline.
//
// Recording policies (all idempotent so re-proposals, duplicate messages,
// and retries never distort a span):
//
//   - Begin: first call wins for a given (stage, key, node);
//   - End: closes the open span; later calls are ignored;
//   - Span: one-shot Begin+End; first call wins;
//   - Mark: global per-(stage, key) anchor; earliest time wins;
//   - SpanSinceMark: closes a span from the anchor to now on the calling
//     node's timeline.
//
// A nil *Tracer is a valid no-op recorder, so components can hold one
// unconditionally.
type Tracer struct {
	epoch time.Time
	byKey map[spanKey]*Span
	order []*Span
	marks map[markKey]time.Time
}

// NewTracer builds a tracer anchored at the simulation epoch (timestamps
// in exports are offsets from it).
func NewTracer(epoch time.Time) *Tracer {
	return &Tracer{
		epoch: epoch,
		byKey: make(map[spanKey]*Span),
		marks: make(map[markKey]time.Time),
	}
}

// Epoch returns the anchor time (zero on nil).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Begin opens the (stage, key) span on node's timeline. The first call
// wins; re-begins are ignored.
func (t *Tracer) Begin(stage Stage, key uint64, node wire.NodeID, at time.Time) {
	if t == nil {
		return
	}
	sk := spanKey{stage, key, node}
	if _, ok := t.byKey[sk]; ok {
		return
	}
	sp := &Span{Stage: stage, Key: key, Node: node, Start: at, open: true}
	t.byKey[sk] = sp
	t.order = append(t.order, sp)
}

// End closes the open (stage, key) span on node's timeline. Ends without
// a matching Begin, and ends after the span closed, are ignored.
func (t *Tracer) End(stage Stage, key uint64, node wire.NodeID, at time.Time) {
	if t == nil {
		return
	}
	sp, ok := t.byKey[spanKey{stage, key, node}]
	if !ok || !sp.open {
		return
	}
	sp.End = at
	sp.open = false
}

// Span records a complete span in one call. The first call for a given
// (stage, key, node) wins.
func (t *Tracer) Span(stage Stage, key uint64, node wire.NodeID, start, end time.Time) {
	if t == nil {
		return
	}
	sk := spanKey{stage, key, node}
	if _, ok := t.byKey[sk]; ok {
		return
	}
	sp := &Span{Stage: stage, Key: key, Node: node, Start: start, End: end}
	t.byKey[sk] = sp
	t.order = append(t.order, sp)
}

// Mark records the global start anchor for a cross-node stage (stripe
// dissemination, block delivery). The earliest mark wins, so whichever
// distributor ships the first stripe anchors the stage.
func (t *Tracer) Mark(stage Stage, key uint64, at time.Time) {
	if t == nil {
		return
	}
	mk := markKey{stage, key}
	if prev, ok := t.marks[mk]; ok && !at.Before(prev) {
		return
	}
	t.marks[mk] = at
}

// SpanSinceMark closes a span from the (stage, key) anchor to end on
// node's timeline. Without an anchor (e.g. content recovered through
// catch-up after the mark aged out) the span is zero-length at end.
func (t *Tracer) SpanSinceMark(stage Stage, key uint64, node wire.NodeID, end time.Time) {
	if t == nil {
		return
	}
	start, ok := t.marks[markKey{stage, key}]
	if !ok || start.After(end) {
		start = end
	}
	t.Span(stage, key, node, start, end)
}

// Discard terminates the (stage, key) span on node's timeline as
// abandoned: the span closes at `at` with Discarded set, so it neither
// leaks open (open spans vanish from Spans() and every export) nor
// pollutes the stage's latency statistics. Without a matching Begin, a
// zero-length discarded span anchored at the stage's Mark (or at `at`
// when no anchor exists) is recorded, so speculative work that was only
// anchored remotely still shows up in drop accounting. Discarding an
// already-closed span is ignored — completion wins.
func (t *Tracer) Discard(stage Stage, key uint64, node wire.NodeID, at time.Time) {
	if t == nil {
		return
	}
	sk := spanKey{stage, key, node}
	if sp, ok := t.byKey[sk]; ok {
		if !sp.open {
			return
		}
		sp.End = at
		sp.open = false
		sp.Discarded = true
		return
	}
	start, ok := t.marks[markKey{stage, key}]
	if !ok || start.After(at) {
		start = at
	}
	sp := &Span{Stage: stage, Key: key, Node: node, Start: start, End: at, Discarded: true}
	t.byKey[sk] = sp
	t.order = append(t.order, sp)
}

// DiscardedCount returns how many spans of the stage were terminated via
// Discard.
func (t *Tracer) DiscardedCount(stage Stage) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, sp := range t.order {
		if sp.Discarded && sp.Stage == stage {
			n++
		}
	}
	return n
}

// SpanCount returns how many spans were recorded (open and closed).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	return len(t.order)
}

// Spans returns every closed span sorted by (start, node, stage, key) —
// a deterministic order given deterministic recordings. Open spans
// (begun, never ended) are excluded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.order))
	for _, sp := range t.order {
		if !sp.open {
			out = append(out, *sp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// StageDurations returns the closed-span durations of one stage, sorted
// ascending (ready for percentiles). It scans the raw recording order
// rather than the sorted Spans() view: the duration multiset is
// order-independent, and the final ascending sort makes the result
// deterministic without paying for a full span sort per stage. Discarded
// spans are excluded — an abandoned speculation's lifetime is drop
// accounting, not stage latency.
func (t *Tracer) StageDurations(stage Stage) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, sp := range t.order {
		if !sp.open && !sp.Discarded && sp.Stage == stage {
			out = append(out, sp.Duration())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StageSummary summarizes one stage's closed spans.
func (t *Tracer) StageSummary(stage Stage) stats.Summary {
	return stats.Summarize(t.StageDurations(stage))
}

// stageSilent reports whether a stage recorded nothing at all — no closed
// spans and no discards — so mode-dependent stages (spec_distributed only
// fires in streaming mode) can be dropped from tables and CSV instead of
// rendering all-zero rows.
func (t *Tracer) stageSilent(stage Stage) bool {
	for _, sp := range t.order {
		if sp.Stage == stage && (!sp.open || sp.Discarded) {
			return false
		}
	}
	return true
}

// WriteStageCSV writes the per-stage latency breakdown as CSV, one row
// per pipeline stage in data-flow order. Optional (mode-dependent) stages
// that recorded nothing are omitted; always-on stages render zero rows so
// their absence stays visible.
func (t *Tracer) WriteStageCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "stage,count,mean_ms,p50_ms,p90_ms,p99_ms,max_ms\n"); err != nil {
		return err
	}
	for _, stage := range Stages() {
		if stage.Optional() && t.stageSilent(stage) {
			continue
		}
		s := t.StageSummary(stage)
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%s,%s,%s\n",
			stage, s.Count,
			formatFloat(durMS(s.Mean)), formatFloat(durMS(s.P50)),
			formatFloat(durMS(s.P90)), formatFloat(durMS(s.P99)),
			formatFloat(durMS(s.Max))); err != nil {
			return err
		}
	}
	return nil
}

// StageTable renders the per-stage latency breakdown as a stats.Table for
// terminal output: one row per stage (X = position in the pipeline), one
// column per statistic. Optional stages that recorded nothing — closed
// spans and discards both zero — are omitted, so block-mode runs never
// render the streaming-only spec_distributed row; always-on stages keep
// their zero rows, matching the historical output. Every percentile is
// exact: nearest rank over the stage's sorted durations (StageSummary).
func (t *Tracer) StageTable() *stats.Table {
	title := "Stage latency breakdown (rows:"
	tbl := &stats.Table{XLabel: "stage"}
	count := &stats.Series{Name: "count"}
	mean := &stats.Series{Name: "mean_ms"}
	p50 := &stats.Series{Name: "p50_ms"}
	p90 := &stats.Series{Name: "p90_ms"}
	p99 := &stats.Series{Name: "p99_ms"}
	for _, stage := range Stages() {
		if stage.Optional() && t.stageSilent(stage) {
			continue
		}
		s := t.StageSummary(stage)
		x := float64(stage) + 1
		title += fmt.Sprintf(" %d=%s", int(stage)+1, stage)
		count.Add(x, float64(s.Count))
		mean.Add(x, durMS(s.Mean))
		p50.Add(x, durMS(s.P50))
		p90.Add(x, durMS(s.P90))
		p99.Add(x, durMS(s.P99))
	}
	title += ")"
	tbl.Title = title
	tbl.Series = []*stats.Series{count, mean, p50, p90, p99}
	return tbl
}
