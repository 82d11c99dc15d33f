// Command predis-lint runs the repository's custom static-analysis suite
// — per-function checks (determinism, wiresym, lockorder, errchecklite,
// encodecache) plus the interprocedural analyzers built on
// the call-graph engine (detflow, hotalloc, handlercomplete) — which
// mechanically enforces the simnet determinism contract, the zero-alloc
// hot-path contract, and the wire-symmetry invariant (see DESIGN.md,
// "The determinism contract").
//
// Standalone (the Makefile's `make lint`):
//
//	go run ./cmd/predis-lint ./...
//	predis-lint -analyzers determinism,wiresym ./internal/...
//	predis-lint -json ./... > findings.json
//
// As a vet tool (per-package, driven by the go command):
//
//	go build -o bin/predis-lint ./cmd/predis-lint
//	go vet -vettool=$(pwd)/bin/predis-lint ./...
//
// In vet mode the go command analyzes one package at a time in
// dependency order, handing each unit the .vetx fact files of its
// imports. predis-lint writes real per-function summaries (wall-clock /
// rand / emission / allocation taint, cold-path markers) for module
// packages, so the interprocedural analyzers see through dependency
// boundaries even though only one package is loaded; fact files for
// out-of-module packages are empty placeholders.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational failure.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"predis/tools/analyzers/analysis"
	"predis/tools/analyzers/suite"
)

// modulePrefix identifies packages whose vetx files carry real facts.
const modulePrefix = "predis"

func main() {
	var (
		version   = flag.String("V", "", "print version and exit (go vet protocol)")
		analyzers = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: predis-lint [-analyzers a,b] [-json] [packages]\n")
		fmt.Fprintf(os.Stderr, "       predis-lint <unit>.cfg   (go vet -vettool mode)\n\n")
		flag.PrintDefaults()
	}
	// go vet probes tools with a bare `-flags` argument and expects a
	// JSON description of the flags they accept; an empty list tells the
	// go command to pass none, which is all predis-lint needs.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	flag.Parse()

	if *version != "" {
		// The go command probes tools with -V=full and derives a tool ID
		// from the reply; for "devel" tools it requires a trailing
		// buildID= field, so hash the executable (same scheme as the
		// x/tools unitchecker).
		name := filepath.Base(os.Args[0])
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			os.Exit(2)
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			os.Exit(2)
		}
		sum := sha256.Sum256(data)
		fmt.Printf("%s version devel buildID=%02x\n", name, sum)
		return
	}
	if *list {
		for _, a := range suite.All() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	active := suite.All()
	if *analyzers != "" {
		active = suite.ByName(strings.Split(*analyzers, ","))
		if len(active) == 0 {
			fmt.Fprintf(os.Stderr, "predis-lint: no analyzers match %q\n", *analyzers)
			os.Exit(2)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vettool(args[0], active))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		os.Exit(2)
	}
	os.Exit(runOn(dir, args, active, nil, *jsonOut, os.Stdout))
}

// finding is one diagnostic in -json output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runOn loads patterns relative to dir, runs the suite with the given
// imported facts, and prints diagnostics (text or JSON); it returns the
// process exit code.
func runOn(dir string, patterns []string, active []*analysis.Analyzer, facts *analysis.FactSet, jsonOut bool, out *os.File) int {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		return 2
	}
	diags, err := analysis.RunWithFacts(pkgs, active, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		return 2
	}
	if jsonOut {
		// Run already sorts by file/line/col/analyzer, so the array is
		// deterministic for a given repo state.
		fs := make([]finding, 0, len(diags))
		for _, d := range diags {
			fs = append(fs, finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fs); err != nil {
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "predis-lint: %d issue(s) in %d package(s)\n",
			len(diags), len(pkgs))
		return 1
	}
	return 0
}

// vetConfig is the subset of the go vet unit-checking protocol config
// predis-lint consumes (see x/tools unitchecker for the full schema).
type vetConfig struct {
	ImportPath                string
	Dir                       string
	VetxOnly                  bool
	VetxOutput                string
	PackageVetx               map[string]string
	SucceedOnTypecheckFailure bool
}

// vettool implements the `go vet -vettool` protocol: read the unit
// config, import the dependency facts the go command hands us, produce
// this unit's facts file, and — for packages under analysis (not
// fact-only dependencies) — run the suite via the source loader.
func vettool(cfgPath string, active []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-lint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "predis-lint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	inModule := cfg.ImportPath == modulePrefix ||
		strings.HasPrefix(cfg.ImportPath, modulePrefix+"/")

	// Non-module units (stdlib and the like) get an empty placeholder
	// vetx and are never loaded.
	if !inModule {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "predis-lint:", err)
				return 2
			}
		}
		return 0
	}

	// Merge the fact files of this unit's dependencies (module packages
	// contribute real summaries; others decode to empty sets). Paths are
	// visited in sorted order for deterministic merges.
	imported := analysis.NewFactSet()
	depPaths := make([]string, 0, len(cfg.PackageVetx))
	for p := range cfg.PackageVetx {
		depPaths = append(depPaths, p)
	}
	sort.Strings(depPaths)
	for _, p := range depPaths {
		raw, err := os.ReadFile(cfg.PackageVetx[p])
		if err != nil {
			continue // missing/unreadable dep facts degrade, not fail
		}
		fs, err := analysis.DecodeFacts(raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predis-lint: facts of %s: %v\n", p, err)
			return 2
		}
		imported.Merge(fs)
	}

	dir := cfg.Dir
	if dir == "" {
		dir, _ = os.Getwd()
	}

	if cfg.VetxOutput != "" {
		pkgs, err := analysis.Load(dir, cfg.ImportPath)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			return 2
		}
		facts := analysis.ExportFacts(analysis.NewProgram(pkgs, imported))
		enc, err := facts.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			return 2
		}
		if err := os.WriteFile(cfg.VetxOutput, enc, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "predis-lint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	code := runOn(dir, []string{cfg.ImportPath}, active, imported, false, os.Stderr)
	if code == 2 && cfg.SucceedOnTypecheckFailure {
		return 0
	}
	if code == 1 {
		return 2 // vet convention: any nonzero fails the build
	}
	return code
}
