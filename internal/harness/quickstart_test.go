package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"predis/internal/obs"
)

// TestQuickstartAllStagesFire runs the quickstart deployment and asserts
// every pipeline stage recorded at least one span — the property the
// trace-smoke CI target also checks from the CLI side.
func TestQuickstartAllStagesFire(t *testing.T) {
	sink := &Sink{}
	tables, err := Quickstart(Options{Quick: true, Seed: 1, Obs: sink})
	if err != nil {
		t.Fatalf("quickstart: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2 (summary + stage breakdown)", len(tables))
	}
	if sink.Trace == nil || sink.Metrics == nil || sink.Sampler == nil {
		t.Fatalf("sink not populated: %+v", sink)
	}
	for _, stage := range obs.Stages() {
		if stage.Optional() {
			continue // mode-dependent (spec_distributed fires only in stream mode)
		}
		if s := sink.Trace.StageSummary(stage); s.Count == 0 {
			t.Errorf("stage %s recorded no spans", stage)
		}
	}
	// The exported Chrome trace parses and carries every stage name.
	var buf bytes.Buffer
	if err := sink.Trace.WriteChrome(&buf, sink.Sampler); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	for _, stage := range obs.Stages() {
		if stage.Optional() {
			continue
		}
		if name := stage.String(); !strings.Contains(buf.String(), `"`+name+`"`) {
			t.Errorf("chrome trace missing stage %q", name)
		}
	}
}

// TestQuickstartDeterministic asserts two same-seed quickstart runs
// produce byte-identical trace and metrics exports.
func TestQuickstartDeterministic(t *testing.T) {
	run := func() (string, string, string) {
		sink := &Sink{}
		if _, err := Quickstart(Options{Quick: true, Seed: 3, Obs: sink}); err != nil {
			t.Fatalf("quickstart: %v", err)
		}
		var trace, metrics, stages bytes.Buffer
		if err := sink.Trace.WriteChrome(&trace, sink.Sampler); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if err := sink.Metrics.WriteCSV(&metrics); err != nil {
			t.Fatalf("metrics csv: %v", err)
		}
		if err := sink.Trace.WriteStageCSV(&stages); err != nil {
			t.Fatalf("stage csv: %v", err)
		}
		return trace.String(), metrics.String(), stages.String()
	}
	t1, m1, s1 := run()
	t2, m2, s2 := run()
	if t1 != t2 {
		t.Errorf("chrome traces differ between same-seed runs")
	}
	if m1 != m2 {
		t.Errorf("metrics CSVs differ between same-seed runs")
	}
	if s1 != s2 {
		t.Errorf("stage CSVs differ between same-seed runs")
	}
}
