package analysis

import (
	"go/ast"
	"go/types"
)

// Sessionlife checks the session lifecycle from the paper's login model
// (§3) as the repo implements it: a *Session born from NewSession must
// reach Close on every path out of the creating function and never be used
// after it (an open session pins the validation log — the exact
// gemstone.Open/CreateUser bootstrap leak PR 7 fixed by hand).
//
// Conservatism rules (on top of the typestate engine's, see typestate.go):
//
//   - Births are calls to program functions named NewSession whose first
//     result is a *Session (matched by shape, so fixtures and future
//     session-like types participate); consumes are the Close method on a
//     *Session value and any program helper the consume summary proves
//     closes its parameter on every return.
//   - Returning a session or storing it into caller-visible state is a
//     silent ownership transfer, not a finding: constructors legitimately
//     hand sessions to their callers, and the receiving layer owns the
//     close. The checker therefore enforces the lifecycle only inside the
//     function that created the session; a session embedded in a returned
//     wrapper struct leaves its scope via an explicit waiver at the birth
//     site naming the owner that closes it.
func Sessionlife(paths ...string) *Analyzer {
	return &Analyzer{
		Name:  "sessionlife",
		Doc:   "sessions reach Close on every path and are never used after",
		Paths: paths,
		Run:   runSessionlife,
	}
}

func runSessionlife(pass *Pass) {
	findings := pass.Prog.Once("sessionlife", func() any {
		return RunTypestate(pass.Prog, sessionlifeProtocol(pass.Prog), pass.Analyzer.Paths)
	}).([]tsFinding)
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// isSessionPtr recognizes a *Session of any program package by shape.
func isSessionPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Session"
}

func sessionlifeProtocol(prog *Program) *TSProtocol {
	return &TSProtocol{
		Birth: func(f *Func, call *ast.CallExpr) (string, int, bool) {
			fn := calleeFuncOf(f.Pkg.Info, call)
			if fn == nil || prog.FuncOf(fn) == nil {
				return "", 0, false
			}
			if fn.Name() != "NewSession" {
				return "", 0, false
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() == 0 || !isSessionPtr(sig.Results().At(0).Type()) {
				return "", 0, false
			}
			return "session from " + callName(call), 0, true
		},
		Consume: func(f *Func, call *ast.CallExpr) (ast.Expr, string, bool) {
			fn := calleeFuncOf(f.Pkg.Info, call)
			if fn == nil || fn.Name() != "Close" {
				return nil, "", false
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil, "", false
			}
			if tv, ok := f.Pkg.Info.Types[sel.X]; !ok || !isSessionPtr(tv.Type) {
				return nil, "", false
			}
			return sel.X, "closed", true
		},
		EscapeIsFinding: false,
		ReturnIsFinding: false,
		Consumed:        "closed",
		FixHint:         "close it before each exit or defer the close",
	}
}
