// Package detflow implements the interprocedural determinism-taint
// analyzer. Where the per-function `determinism` analyzer flags direct
// uses of the wall clock, the global math/rand source, and map-ordered
// emission inside a single function body, detflow follows the whole
// program's call graph: a helper that wraps time.Now, a function value
// that captures it, or a map-range body that reaches an emission three
// calls down are all reported at the sim-visible function where the
// nondeterminism enters.
//
// Three interprocedural rules:
//
//  1. wall clock: a sim-visible function whose call chain reaches a
//     forbidden time package function (chain rendered in the message);
//  2. global rand: likewise for global-source math/rand functions;
//  3. map-order emission: a call inside a map-iteration body whose
//     resolved targets transitively emit (Send/After/Multicast/Record*)
//     leaks iteration order into the event stream even though no
//     emission name appears syntactically in the range body.
//
// Scope matches the determinism analyzer: packages outside the trusted
// runtime segments (rtnet, simnet, env, cmd, faults), non-test
// functions only. Taint does not cross interfaces declared by trusted
// packages (env.Context.Now is the sanctioned clock boundary).
package detflow

import (
	"predis/tools/analyzers/analysis"
)

// Analyzer is the interprocedural determinism-taint check.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "interprocedural determinism taint: wall clocks, global math/rand, " +
		"and map-iteration order reaching sim-visible emission through call chains",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if analysis.PathHasSegment(pass.PkgPath, analysis.TrustedSegments...) {
		return nil
	}
	prog := pass.Program()
	wall := prog.Propagate(analysis.FactWallClock, analysis.DirectWallClock, analysis.StandardFollow)
	grand := prog.Propagate(analysis.FactGlobalRand, analysis.DirectGlobalRand, analysis.StandardFollow)
	emit := prog.Propagate(analysis.FactEmission, analysis.DirectEmission, analysis.StandardFollow)

	for _, n := range prog.Nodes() {
		if n.Pkg.PkgPath != pass.PkgPath || n.IsTest {
			continue
		}
		reportSourceTaint(pass, prog, n, wall, "wall clock")
		reportSourceTaint(pass, prog, n, grand, "global math/rand")
		reportMapOrderEmission(pass, n, emit)
	}
	return nil
}

// simVisible reports whether the function with the given node is in
// determinism scope (its package is outside the trusted segments and it
// is not a test helper).
func simVisible(n *analysis.FuncNode) bool {
	return !n.IsTest && !analysis.PathHasSegment(n.Pkg.PkgPath, analysis.TrustedSegments...)
}

// reportSourceTaint reports n when it is the sim-visible function where
// the taint enters: either the source is direct (a call or captured
// value inside n), or the taint arrives from a callee that is itself
// not sim-visible (so the deeper function was not reportable and n is
// the first in-scope frame on the chain). Chains that pass through
// another sim-visible function are reported at that deeper function
// instead, keeping one finding per entry point.
func reportSourceTaint(pass *analysis.Pass, prog *analysis.Program, n *analysis.FuncNode, t *analysis.Taint, what string) {
	if !t.Tainted(n) {
		return
	}
	if t.Direct(n) == "" {
		// Taint arrived through a callee. Report here only when no
		// resolved tainted callee is itself sim-visible (otherwise the
		// deeper function owns the finding).
		for _, site := range n.Calls {
			for _, key := range site.Targets {
				if callee := prog.Node(key); callee != nil && simVisible(callee) && t.Tainted(callee) {
					return
				}
			}
		}
	}
	pass.Reportf(n.Pos, "%s reaches sim-visible code: %s (via %s)",
		what, n.Obj.Name(), t.Chain(n))
}

// reportMapOrderEmission flags call sites inside map-iteration bodies
// whose resolved targets transitively emit. Sites whose own name is an
// emission (ctx.Send directly in the range body) are the per-function
// determinism analyzer's territory and are skipped here.
func reportMapOrderEmission(pass *analysis.Pass, n *analysis.FuncNode, emit *analysis.Taint) {
	for _, site := range n.Calls {
		if site.RangeIdx < 0 || site.Kind == analysis.CallRef {
			continue
		}
		if analysis.IsEmissionName(site.Name) {
			continue // direct emission: determinism analyzer reports it
		}
		for _, key := range site.Targets {
			if emit.TaintedKey(key) {
				pass.Reportf(site.Pos,
					"call to %s inside map iteration reaches emission (%s): map order becomes sim-visible",
					site.Name, emit.ChainKey(key))
				break
			}
		}
	}
}
