package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: predis
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimnetSendDrain-4    	  100000	        73.21 ns/op	       0 B/op	       0 allocs/op
BenchmarkWireMarshal-4        	    5000	     15299 ns/op	1674.46 MB/s	   27288 B/op	       2 allocs/op
BenchmarkFig5WAN              	       1	123456789 ns/op	     21000 peak_fig5wan
some test log line
PASS
ok  	predis	1.234s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "predis" {
		t.Fatalf("header: %+v", doc)
	}
	if !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("cpu: %q", doc.CPU)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(doc.Results))
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkSimnetSendDrain" { // -4 suffix stripped
		t.Fatalf("name: %q", r.Name)
	}
	if r.Iterations != 100000 || r.NsPerOp != 73.21 {
		t.Fatalf("result 0: %+v", r)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Fatalf("allocs: %+v", r.AllocsPerOp)
	}
	m := doc.Results[1]
	if m.MBPerSec == nil || *m.MBPerSec != 1674.46 {
		t.Fatalf("mb/s: %+v", m)
	}
	if m.BytesPerOp == nil || *m.BytesPerOp != 27288 {
		t.Fatalf("B/op: %+v", m)
	}
	f := doc.Results[2]
	if f.Name != "BenchmarkFig5WAN" || f.Extra["peak_fig5wan"] != 21000 {
		t.Fatalf("custom metric: %+v", f)
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	doc, err := Parse(strings.NewReader("Benchmark this is not a result\nnothing here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Fatalf("parsed garbage: %+v", doc.Results)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":         "BenchmarkX",
		"BenchmarkX":           "BenchmarkX",
		"BenchmarkSplit-Y":     "BenchmarkSplit-Y",
		"BenchmarkSplit-Y-16":  "BenchmarkSplit-Y",
		"BenchmarkTrailing-":   "BenchmarkTrailing-",
		"Benchmark-12abc":      "Benchmark-12abc",
		"BenchmarkNoSuffix-0x": "BenchmarkNoSuffix-0x",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func i64(v int64) *int64 { return &v }

func TestCompare(t *testing.T) {
	base := &Doc{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: i64(1000), Extra: map[string]float64{"cpus": 2}},
		{Name: "BenchmarkZero", NsPerOp: 50, AllocsPerOp: i64(0)},
	}}
	for _, tc := range []struct {
		name   string
		a, z   int64
		wantOK bool
	}{
		{"equal", 1000, 0, true},
		{"fewer", 900, 0, true},
		{"within 5%", 1050, 0, true},
		{"past 5%", 1051, 0, false},
		{"zero-alloc row allocates", 1000, 1, false},
	} {
		cur := &Doc{Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 130, AllocsPerOp: i64(tc.a), Extra: map[string]float64{"cpus": 2}},
			{Name: "BenchmarkZero", NsPerOp: 40, AllocsPerOp: i64(tc.z)},
			{Name: "BenchmarkNew", NsPerOp: 1, AllocsPerOp: i64(99)},
		}}
		var out strings.Builder
		if got := Compare(&out, base, cur); got != tc.wantOK {
			t.Errorf("%s: Compare = %v, want %v\n%s", tc.name, got, tc.wantOK, out.String())
		}
		report := out.String()
		for _, want := range []string{"+30.0%", "cpus 2 → 2", "cpus ? → ?", "BenchmarkNew", "new row"} {
			if !strings.Contains(report, want) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, want, report)
			}
		}
	}
	// A committed row whose benchmark did not run fails the gate.
	withGone := &Doc{Results: append(base.Results[:2:2], Result{Name: "BenchmarkGone", NsPerOp: 10, AllocsPerOp: i64(1)})}
	var out strings.Builder
	if Compare(&out, withGone, base) || !strings.Contains(out.String(), "BenchmarkGone") {
		t.Errorf("missing committed row passed:\n%s", out.String())
	}
}

func TestRunCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	committed := dir + "/BENCH.json"
	if code := run([]string{"-o", committed}, strings.NewReader(sample), io.Discard); code != 0 {
		t.Fatalf("writing the committed file: exit %d", code)
	}
	if code := run([]string{"-o", dir + "/same.json", "-compare", committed}, strings.NewReader(sample), io.Discard); code != 0 {
		t.Fatalf("identical input: exit %d, want 0", code)
	}
	worse := strings.Replace(sample, "2 allocs/op", "3 allocs/op", 1)
	var errw strings.Builder
	if code := run([]string{"-o", dir + "/cur.json", "-compare", committed}, strings.NewReader(worse), &errw); code != 1 {
		t.Fatalf("allocs/op 2 → 3: exit %d, want 1\n%s", code, errw.String())
	}
	if code := run([]string{"-o", dir + "/out.json", "-compare", dir + "/missing.json"}, strings.NewReader(sample), io.Discard); code != 1 {
		t.Fatalf("missing committed file: exit %d, want 1", code)
	}
}
