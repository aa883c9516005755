package analysis

import (
	"go/ast"
)

// Bufown checks the pooled-buffer ownership discipline from the commit
// hot-path memory diet (PR 7): a buffer taken from a pool — sync.Pool Get,
// the store's takePage COW-page pool, the track layer's popTrack read
// buffers, the algebra executor's runScratch — must be returned to its
// pool exactly once on every path out of the taking function, never used
// after it was returned, and never stored into caller-visible state (the
// static generalization of the -race pool churn test: "pool ∩ pageCache =
// ∅", "callers always get private copies").
//
// Conservatism rules (on top of the typestate engine's, see typestate.go):
//
//   - Births are direct calls to (*sync.Pool).Get and to program functions
//     named takePage or popTrack; consumes are (*sync.Pool).Put and
//     program functions named putPage or recycleLocked (last argument —
//     the repo's put accessors take the pool first and the buffer last),
//     plus any program helper the consume summary proves puts its
//     parameter back on every return. The pool accessors' own bodies are
//     exempt — their internal Get/Put is the mechanism being wrapped.
//   - Returning a live pooled value, storing it through a parameter,
//     receiver or package-level variable, sending it on a channel or
//     handing it to a goroutine are escape findings: a pooled value's
//     lifetime must close inside the function that took it. Deliberate
//     ownership transfers (a cache that recycles on eviction) carry
//     //lint:ignore bufown waivers at the store site.
//   - A store into a structure declared inside the body is ⊤ (silent), as
//     is capture by a closure — the dynamic churn test covers what the
//     engine cannot see.
func Bufown(paths ...string) *Analyzer {
	return &Analyzer{
		Name:  "bufown",
		Doc:   "pooled buffers follow take → use → put exactly once on every exit path and never escape",
		Paths: paths,
		Run:   runBufown,
	}
}

// bufownTakes and bufownPuts name the repo's pool accessors. Matched by
// function name over program-defined functions, so fixtures and future
// pools participate without registration.
var (
	bufownTakes = map[string]bool{"takePage": true, "popTrack": true}
	bufownPuts  = map[string]bool{"putPage": true, "recycleLocked": true}
)

func runBufown(pass *Pass) {
	findings := pass.Prog.Once("bufown", func() any {
		return RunTypestate(pass.Prog, bufownProtocol(pass.Prog), pass.Analyzer.Paths)
	}).([]tsFinding)
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

func bufownProtocol(prog *Program) *TSProtocol {
	return &TSProtocol{
		Birth: func(f *Func, call *ast.CallExpr) (string, int, bool) {
			fn := calleeFuncOf(f.Pkg.Info, call)
			if fn == nil {
				return "", 0, false
			}
			if fn.FullName() == "(*sync.Pool).Get" {
				return "pooled value from " + callName(call), 0, true
			}
			if bufownTakes[fn.Name()] && prog.FuncOf(fn) != nil {
				return "pooled buffer from " + callName(call), 0, true
			}
			return "", 0, false
		},
		Consume: func(f *Func, call *ast.CallExpr) (ast.Expr, string, bool) {
			fn := calleeFuncOf(f.Pkg.Info, call)
			if fn == nil || len(call.Args) < 1 {
				return nil, "", false
			}
			if fn.FullName() == "(*sync.Pool).Put" || (bufownPuts[fn.Name()] && prog.FuncOf(fn) != nil) {
				return call.Args[len(call.Args)-1], "returned to its pool", true
			}
			return nil, "", false
		},
		SkipFunc: func(f *Func) bool {
			return f.Obj != nil && (bufownTakes[f.Obj.Name()] || bufownPuts[f.Obj.Name()])
		},
		EscapeIsFinding: true,
		ReturnIsFinding: true,
		Consumed:        "returned to its pool",
		FixHint:         "put it back before each exit or defer the put",
	}
}
