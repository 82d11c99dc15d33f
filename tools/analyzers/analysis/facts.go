// Vetx-style facts: per-function summaries serialized to the .vetx file
// the `go vet -vettool` protocol already threads between packages. In
// unit-checking mode the go command analyzes one package at a time, in
// dependency order, handing each unit the fact files of its imports —
// exactly the shape a summary-based interprocedural analysis needs. The
// standalone driver (whole program loaded at once) computes the same
// summaries in memory and never touches disk.
//
// The format is deliberately simple and deterministic: JSON object
// fact-name -> (function key -> witness string), keys sorted by
// encoding/json's map ordering, so fact files are byte-stable for a
// given package state.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
)

// FactSet holds per-function summaries keyed by fact name then function
// key (types.Func FullName). The witness string describes how the fact
// arose, for diagnostics ("time.Now", "boxing at codec.go:41").
type FactSet struct {
	m map[string]map[string]string
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[string]map[string]string)}
}

// Get returns the witness for (fact, key) and whether it is present.
func (fs *FactSet) Get(fact, key string) (string, bool) {
	w, ok := fs.m[fact][key]
	return w, ok
}

// Put records a fact.
func (fs *FactSet) Put(fact, key, witness string) {
	inner, ok := fs.m[fact]
	if !ok {
		inner = make(map[string]string)
		fs.m[fact] = inner
	}
	inner[key] = witness
}

// Merge adds every fact from other (other wins on conflicts).
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for fact, inner := range other.m {
		for key, w := range inner {
			fs.Put(fact, key, w)
		}
	}
}

// Len returns the total number of recorded facts.
func (fs *FactSet) Len() int {
	n := 0
	for _, inner := range fs.m {
		n += len(inner)
	}
	return n
}

// Encode serializes the set (deterministically: JSON sorts map keys).
func (fs *FactSet) Encode() ([]byte, error) {
	return json.Marshal(fs.m)
}

// DecodeFacts parses a fact file produced by Encode. Empty input (the
// placeholder vetx the driver writes for non-module packages) yields an
// empty set.
func DecodeFacts(data []byte) (*FactSet, error) {
	fs := NewFactSet()
	if len(data) == 0 {
		return fs, nil
	}
	if err := json.Unmarshal(data, &fs.m); err != nil {
		return nil, fmt.Errorf("facts: %w", err)
	}
	if fs.m == nil {
		fs.m = make(map[string]map[string]string)
	}
	return fs, nil
}

// ExportFacts computes the standard summaries for every non-test
// function of the program's packages and returns them as a fact set
// suitable for the unit's .vetx output. The policies mirror the
// analyzers that consume the facts (see StandardFollow).
func ExportFacts(p *Program) *FactSet {
	out := NewFactSet()
	wall := p.Propagate(FactWallClock, DirectWallClock, StandardFollow)
	rand := p.Propagate(FactGlobalRand, DirectGlobalRand, StandardFollow)
	emit := p.Propagate(FactEmission, DirectEmission, StandardFollow)
	alloc := p.Propagate(FactAllocates, DirectAllocIn(p), AllocFollowIn(p))
	for _, n := range p.Nodes() {
		if n.IsTest {
			continue
		}
		if n.Cold {
			out.Put(FactColdPath, n.Key, "predis:coldpath")
		}
		for _, t := range []*Taint{wall, rand, emit, alloc} {
			if t.fact == FactAllocates && n.Cold {
				// A cold function's allocations are sanctioned; exporting
				// the fact would make remote callers flag calls into it
				// even though traversal stops at cold boundaries.
				continue
			}
			if t.Tainted(n) {
				out.Put(t.fact, n.Key, t.Chain(n))
			}
		}
	}
	return out
}

// TrustedSegments are import-path segments of packages that sit outside
// the sim-visible determinism scope: the real-time runtime, the
// simulator, the runtime interface, command binaries, and the seeded
// fault injector. Interface methods declared by these packages
// (env.Context.Now, env.Timer, ...) are sanctioned contract boundaries:
// their implementations legitimately wrap the wall clock and are
// audited separately, so taint never flows through them.
var TrustedSegments = []string{"rtnet", "simnet", "env", "cmd", "faults"}

// StandardFollow is the determinism-taint traversal policy: follow
// every edge except interface dispatch through an interface declared in
// a trusted runtime package.
func StandardFollow(n *FuncNode, site *CallSite, calleeKey string) bool {
	if site.Kind == CallIface && site.IfacePkg != "" &&
		PathHasSegment(site.IfacePkg, TrustedSegments...) {
		return false
	}
	return true
}

// AllocFollowIn is the hot-path traversal policy for prog: static and
// locally-bound calls only (dynamic dispatch leaves the statically
// guarded region), never into predis:coldpath functions.
func AllocFollowIn(p *Program) FollowFunc {
	return func(n *FuncNode, site *CallSite, calleeKey string) bool {
		if site.Kind != CallStatic && site.Kind != CallBound {
			return false
		}
		if callee := p.Node(calleeKey); callee != nil {
			return !callee.Cold && !callee.IsTest
		}
		_, cold := p.Facts().Get(FactColdPath, calleeKey)
		return !cold
	}
}

// directSource seeds a fact from call or capture sites whose callee key
// match recognizes. Captured values are flagged like calls: taking
// time.Now as a func value smuggles the wall clock past any per-call
// check.
func directSource(n *FuncNode, match func(key string) (string, bool)) (string, token.Pos) {
	for _, site := range n.Calls {
		for _, key := range site.Targets {
			if desc, ok := match(key); ok {
				if site.Kind == CallRef {
					desc += " (captured as a function value)"
				}
				return desc, site.Pos
			}
		}
	}
	return "", token.NoPos
}

// DirectWallClock seeds FactWallClock: a call to — or a captured value
// of — a forbidden time package function.
func DirectWallClock(n *FuncNode) (string, token.Pos) {
	return directSource(n, IsWallClockKey)
}

// DirectGlobalRand seeds FactGlobalRand: use of a global-source
// math/rand package-level function.
func DirectGlobalRand(n *FuncNode) (string, token.Pos) {
	return directSource(n, IsGlobalRandKey)
}

// DirectEmission seeds FactEmission: an emission-named call site.
func DirectEmission(n *FuncNode) (string, token.Pos) {
	for _, site := range n.Calls {
		if site.Kind != CallRef && IsEmissionName(site.Name) {
			return site.Name, site.Pos
		}
	}
	return "", token.NoPos
}

// DirectAllocIn seeds FactAllocates for prog: the first unwaived
// allocation site of a non-cold function.
func DirectAllocIn(p *Program) DirectFunc {
	return func(n *FuncNode) (string, token.Pos) {
		if n.Cold {
			return "", token.NoPos
		}
		for _, a := range n.Allocs {
			if !a.Waived {
				pos := n.Pkg.Fset.Position(a.Pos)
				return fmt.Sprintf("%s (%s) at %s:%d", a.Kind, a.Detail,
					shortFile(pos.Filename), pos.Line), a.Pos
			}
		}
		return "", token.NoPos
	}
}

func shortFile(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}
