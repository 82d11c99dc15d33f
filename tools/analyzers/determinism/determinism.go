// Package determinism enforces the simnet determinism contract on
// sim-visible code: every package that can execute inside the
// discrete-event simulator must derive all time from env.Context.Now,
// all randomness from env.Context.Rand, all concurrency from
// env.Context.After, and must never let Go's unordered map iteration
// decide the order of message emission, event scheduling, or stats
// recording.
//
// Scope: every package except those with an import-path segment in
// {rtnet, simnet, env, cmd, faults} — the real-time runtime, the
// simulator itself, the runtime interface (which wraps wall-clock
// machinery), command binaries, and the fault injector (which owns a
// seeded rand.Rand by construction). _test.go files are exempt: tests
// may use wall-clock timeouts because they run outside the simulator.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"predis/tools/analyzers/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, raw goroutines, and " +
		"map-ordered message emission in sim-visible packages",
	Run: run,
}

// exemptSegments are import-path segments that place a package outside
// the sim-visible scope.
var exemptSegments = []string{"rtnet", "simnet", "env", "cmd", "faults"}

// forbiddenTime are time package functions that read or act on the wall
// clock. Pure constructors/converters (Date, Unix, Duration arithmetic,
// ParseDuration, ...) stay allowed.
var forbiddenTime = map[string]string{
	"Now":       "env.Context.Now",
	"Sleep":     "env.Context.After",
	"Since":     "env.Context.Now and Sub",
	"Until":     "env.Context.Now and Sub",
	"After":     "env.Context.After",
	"AfterFunc": "env.Context.After",
	"Tick":      "env.Context.After",
	"NewTimer":  "env.Context.After",
	"NewTicker": "env.Context.After",
}

// allowedRand are math/rand package-level constructors that do not touch
// the global source; everything else at package level does.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// emissionFuncs are callee names whose invocation inside a map-range body
// makes iteration order observable: message sends, event scheduling, and
// stats recording.
func isEmission(name string) bool {
	switch name {
	case "Send", "After", "Multicast":
		return true
	}
	return strings.HasPrefix(name, "Record")
}

func run(pass *analysis.Pass) error {
	if analysis.PathHasSegment(pass.PkgPath, exemptSegments...) {
		return nil
	}
	for _, f := range pass.Syntax {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw goroutine in sim-visible code; schedule work with env.Context.After "+
						"so the simulator serializes it deterministically")
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// packageOf returns the imported package a selector's base identifier
// refers to, or nil when the base is not a package name.
func packageOf(pass *analysis.Pass, expr ast.Expr) *types.Package {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg := packageOf(pass, sel.X)
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "time":
		if repl, bad := forbiddenTime[sel.Sel.Name]; bad {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in sim-visible code; use %s (virtual time)",
				sel.Sel.Name, repl)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"global math/rand.%s is seeded outside the simulation; use the node's "+
					"seeded env.Context.Rand (or a *rand.Rand derived from a config seed)",
				sel.Sel.Name)
		}
	}
}

// checkRange flags `range` over a map whose body emits messages,
// schedules events, or records stats: map order would leak into the
// simulation schedule.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		if isEmission(name) {
			pass.Reportf(rng.Pos(),
				"map iteration order feeds %s; collect the keys, sort them, and iterate "+
					"the sorted slice so the schedule is seed-stable", name)
			reported = true // one report per range statement is enough
			return false
		}
		return true
	})
}
