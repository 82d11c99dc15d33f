// Command benchjson converts `go test -bench` text output into a stable
// JSON document so kernel benchmark results can be committed and diffed
// (BENCH_kernels.json, emitted by `make bench`).
//
// Usage:
//
//	go test -bench=. -benchmem | go run ./tools/benchjson -o BENCH_kernels.json
//
// It parses the standard benchmark line format
//
//	BenchmarkName-8   1000   1234 ns/op   56.7 MB/s   128 B/op   2 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines, and ignores everything
// else (PASS/ok lines, test logs). The output is deterministic for a
// given input: results appear in input order and no timestamps are
// recorded.
//
// With -compare FILE it also gates the input against a committed
// document:
//
//	go test -bench=. -benchmem | go run ./tools/benchjson -o /dev/null -compare BENCH_kernels.json
//
// Every input row that FILE also holds prints its allocs/op and ns/op
// deltas next to its cpus metric. The command fails when any row's
// allocs/op exceeds the committed value by more than 5%, or when a
// committed row is missing from the input (its benchmark failed or was
// not run). allocs/op is the gate because it repeats across machines;
// ns/op drifts with the host and is printed only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerSec    *float64           `json:"mb_per_s,omitempty"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr))
}

func run(argv []string, in io.Reader, errw io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(errw)
	out := fs.String("o", "BENCH_kernels.json", "output JSON path (- for stdout)")
	compare := fs.String("compare", "", "committed JSON to gate allocs/op against (empty: no gate)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	doc, err := Parse(in)
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(errw, "benchjson: no benchmark lines found in input")
		return 1
	}
	if *compare != "" {
		base, err := load(*compare)
		if err != nil {
			fmt.Fprintln(errw, "benchjson:", err)
			return 1
		}
		if !Compare(errw, base, doc) {
			fmt.Fprintf(errw, "benchjson: a row of %s is missing or its allocs/op rose more than %.0f%%\n", *compare, allocSlack*100)
			return 1
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	return 0
}

// Parse reads `go test -bench` output and collects header context plus
// every benchmark result line.
func Parse(in io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	return doc, sc.Err()
}

// parseLine parses one benchmark result line; it reports false for
// lines that merely start with "Benchmark" (e.g. log output).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: trimProcSuffix(fields[0]), Iterations: iters}
	sawNs := false
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			sawNs = true
		case "MB/s":
			mv := v
			r.MBPerSec = &mv
		case "B/op":
			bv := int64(v)
			r.BytesPerOp = &bv
		case "allocs/op":
			av := int64(v)
			r.AllocsPerOp = &av
		default:
			// Custom metrics from b.ReportMetric (e.g. peak_fig5wan).
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	if !sawNs {
		return Result{}, false
	}
	return r, true
}

// trimProcSuffix strips the -GOMAXPROCS suffix from a benchmark name so
// the JSON keys are stable across machines.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// allocSlack is how far a row's allocs/op may rise above the committed
// value before Compare fails it.
const allocSlack = 0.05

// load reads a document written by this command.
func load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &Doc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// Compare prints one line per row of cur that base also holds — allocs/op
// and ns/op, committed → now, with each row's cpus — and reports false
// when any row's allocs/op exceeds base's by more than allocSlack or a
// row of base is missing from cur. Rows only cur holds are listed, not
// gated.
func Compare(w io.Writer, base, cur *Doc) bool {
	committed := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		committed[r.Name] = r
	}
	ok := true
	for _, r := range cur.Results {
		b, found := committed[r.Name]
		if !found {
			fmt.Fprintf(w, "%-40s new row, not gated\n", r.Name)
			continue
		}
		delete(committed, r.Name)
		verdict := ""
		if b.AllocsPerOp != nil && r.AllocsPerOp != nil &&
			float64(*r.AllocsPerOp) > float64(*b.AllocsPerOp)*(1+allocSlack) {
			verdict = "  FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%-40s allocs/op %s  ns/op %.4g → %.4g (%s)  cpus %s → %s%s\n",
			r.Name, allocDelta(b.AllocsPerOp, r.AllocsPerOp),
			b.NsPerOp, r.NsPerOp, pct(b.NsPerOp, r.NsPerOp),
			cpus(b), cpus(r), verdict)
	}
	for _, b := range base.Results {
		if _, left := committed[b.Name]; left {
			fmt.Fprintf(w, "%-40s committed but not run  FAIL\n", b.Name)
			ok = false
		}
	}
	return ok
}

// allocDelta renders committed → current allocs/op.
func allocDelta(base, cur *int64) string {
	if base == nil || cur == nil {
		return "n/a"
	}
	return fmt.Sprintf("%d → %d (%s)", *base, *cur, pct(float64(*base), float64(*cur)))
}

// pct renders the relative change from base to cur.
func pct(base, cur float64) string {
	if base == 0 {
		if cur == 0 {
			return "+0%"
		}
		return "from 0"
	}
	return fmt.Sprintf("%+.1f%%", (cur-base)/base*100)
}

// cpus renders a row's cpus metric, or "?" for rows that do not record it.
func cpus(r Result) string {
	if v, ok := r.Extra["cpus"]; ok {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return "?"
}
