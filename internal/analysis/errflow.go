package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Errflow checks that error results born on the durability path — track
// and replica writes, syncs, truncations, and everything that transitively
// returns one of their errors — actually flow somewhere: into a return, a
// condition, a log call, a health transition, anywhere the program can
// react. Two failure shapes are findings:
//
//   - a discarded result: the source call as a bare statement, behind
//     `defer`/`go`, or assigned to `_`;
//   - a dead assignment: the error is bound to a variable, but on every
//     path from the assignment the variable is overwritten or the
//     function exits without reading it (a CFG reaching-definitions
//     check, so `err` checked on one branch but dropped on another is
//     caught).
//
// A dropped sync error is a silent durability loss: the write is
// acknowledged, the superblock flips, and the data was never on disk —
// the exact failure class the fault-injection suite probes dynamically.
//
// Conservatism rules:
//
//   - Base sources are selector calls named Sync, WriteAt, Truncate or
//     WriteTrack whose last result is type error — by name, so external
//     implementations (os.File, iofault.File) count without needing
//     their bodies.
//   - Derived sources are program functions whose last result is error
//     and which transitively contain a base source call, found over
//     static single-target call edges only; dynamic and interface calls
//     do not propagate sourcehood. A helper that swallows its source
//     error internally is checked inside the helper, not at call sites.
//   - A variable captured by a function literal or having its address
//     taken is exempt from the dead-assignment check (the closure or
//     callee may read it); named result variables are exempt (a naked
//     return reads them implicitly).
//   - Uses are matched by may-reachability: if any path from the
//     assignment reads the variable, the assignment is live. This
//     under-approximates deadness — it never flags an error some path
//     does check.
func Errflow(paths ...string) *Analyzer {
	return &Analyzer{
		Name:  "errflow",
		Doc:   "errors from track/replica write, sync and superblock calls must reach a return, log, or health transition",
		Paths: paths,
		Run:   runErrflow,
	}
}

// errflowBaseNames are the method names whose error result starts the
// durability-error flow.
var errflowBaseNames = map[string]bool{
	"Sync":       true,
	"WriteAt":    true,
	"Truncate":   true,
	"WriteTrack": true,
}

type errflowFinding struct {
	pos token.Pos
	msg string
}

func runErrflow(pass *Pass) {
	findings := pass.Prog.Once("errflow", func() any {
		return computeErrflow(pass.Prog, pass.Analyzer.Paths)
	}).([]errflowFinding)
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

type errflowIndex struct {
	prog     *Program
	contains map[*Func]int8 // transitively contains a base source: 0 ?, 1 yes, 2 no
}

func computeErrflow(prog *Program, paths []string) []errflowFinding {
	idx := &errflowIndex{
		prog:     prog,
		contains: make(map[*Func]int8),
	}
	scope := &Analyzer{Paths: paths}
	var out []errflowFinding
	for _, f := range prog.Funcs {
		if !scope.applies(f.Pkg.Path) {
			continue
		}
		out = append(out, idx.checkFunc(f)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// lastResultIsError reports whether the call produces an error as its
// last (or only) result.
func lastResultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

// isBaseSource recognizes a direct durability call: x.Sync(), x.WriteAt(...),
// x.Truncate(...), x.WriteTrack(...) returning an error.
func isBaseSource(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !errflowBaseNames[sel.Sel.Name] {
		return false
	}
	return lastResultIsError(info, call)
}

// containsSource reports whether f transitively contains a base source
// call, via static single-target edges.
func (idx *errflowIndex) containsSource(f *Func) bool {
	switch idx.contains[f] {
	case 1:
		return true
	case 2:
		return false
	}
	idx.contains[f] = 2 // cycle cut
	found := false
	nodeWalk(f.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBaseSource(f.Pkg.Info, call) {
			found = true
			return false
		}
		return true
	})
	if !found {
	search:
		for i := range f.Calls {
			c := &f.Calls[i]
			if c.Dynamic || len(c.Callees) != 1 {
				continue
			}
			if idx.containsSource(c.Callees[0]) {
				found = true
				break search
			}
		}
	}
	if found {
		idx.contains[f] = 1
	}
	return found
}

// isSourceCall reports whether this call site yields a durability error:
// a base source, or a call to a derived source function.
func (idx *errflowIndex) isSourceCall(f *Func, call *ast.CallExpr) bool {
	if isBaseSource(f.Pkg.Info, call) {
		return true
	}
	if !lastResultIsError(f.Pkg.Info, call) {
		return false
	}
	callee := idx.prog.StaticCallee(call)
	return callee != nil && idx.containsSource(callee)
}

// errDef is one binding of a source error to a variable.
type errDef struct {
	obj *types.Var
	pos token.Pos // the assignment
}

// errflowScan carries the per-function check state shared across the
// dataflow transfer: which defs exist, which were (may-)read, and the
// exempt variables.
type errflowScan struct {
	idx    *errflowIndex
	f      *Func
	info   *types.Info
	exempt map[*types.Var]bool
	used   map[errDef]bool
	defs   map[errDef]string // def -> rendered source-call name
	order  []errDef
	direct []errflowFinding   // discard/_ findings
	seen   map[token.Pos]bool // direct findings already recorded: the
	// dataflow transfer re-runs to fixpoint, but each site reports once
}

func (idx *errflowIndex) checkFunc(f *Func) []errflowFinding {
	s := &errflowScan{
		idx:    idx,
		f:      f,
		info:   f.Pkg.Info,
		exempt: exemptVars(f),
		used:   make(map[errDef]bool),
		defs:   make(map[errDef]string),
		seen:   make(map[token.Pos]bool),
	}

	// Pass 1 (flow-insensitive, once): discarded results.
	nodeWalk(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && idx.isSourceCall(f, call) {
				s.report(call.Pos(), "error from %s is discarded; a dropped durability error is a silent data loss — return it, log it, or degrade health", callName(call))
			}
		case *ast.DeferStmt:
			if idx.isSourceCall(f, n.Call) {
				s.report(n.Call.Pos(), "error from deferred %s is discarded — wrap the defer in a closure that checks it", callName(n.Call))
			}
		case *ast.GoStmt:
			if idx.isSourceCall(f, n.Call) {
				s.report(n.Call.Pos(), "error from %s is discarded by the go statement — the goroutine must handle it", callName(n.Call))
			}
		}
		return true
	})

	// Pass 2 (flow-sensitive): assignments whose error is never read.
	cfg := idx.prog.CFGOf(f)
	cfg.Forward(FlowSpec{
		Init: func() any { return reachSet{} },
		Transfer: func(b *Block, in any) any {
			st := in.(reachSet).clone()
			for _, n := range b.Nodes {
				s.node(n, st)
			}
			return st
		},
		Join: func(a, b any) any {
			x, y := a.(reachSet), b.(reachSet)
			j := x.clone()
			for d := range y {
				j[d] = true
			}
			return j
		},
		Equal: func(a, b any) bool {
			x, y := a.(reachSet), b.(reachSet)
			if len(x) != len(y) {
				return false
			}
			for d := range x {
				if !y[d] {
					return false
				}
			}
			return true
		},
	})

	out := s.direct
	for _, d := range s.order {
		if !s.used[d] {
			out = append(out, errflowFinding{
				pos: d.pos,
				msg: "error from " + s.defs[d] + " is assigned to " + d.obj.Name() + " but never read on any path — check it before the function exits",
			})
		}
	}
	return out
}

// reachSet is the dataflow state: the error defs that may reach this
// point unread.
type reachSet map[errDef]bool

func (r reachSet) clone() reachSet {
	c := make(reachSet, len(r))
	for d := range r {
		c[d] = true
	}
	return c
}

func (s *errflowScan) report(pos token.Pos, format string, args ...any) {
	if s.seen[pos] {
		return
	}
	s.seen[pos] = true
	s.direct = append(s.direct, errflowFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// node processes one CFG node in order: uses first (right-hand sides),
// then kills and new defs.
func (s *errflowScan) node(n ast.Node, st reachSet) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			s.uses(rhs, st)
		}
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				s.kill(objOf(s.info, id), st)
			} else {
				s.uses(lhs, st) // x.f = v, m[k] = v: the base is read
			}
		}
		s.bindSources(n.Lhs, n.Rhs, n.Pos(), st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				for _, v := range vs.Values {
					s.uses(v, st)
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				s.bindSources(lhs, vs.Values, vs.Pos(), st)
			}
		}
	default:
		s.uses(n, st)
	}
}

// bindSources records a def for each source call bound to a trackable
// local, and reports sources bound straight to the blank identifier.
func (s *errflowScan) bindSources(lhs, rhs []ast.Expr, pos token.Pos, st reachSet) {
	bind := func(target ast.Expr, call *ast.CallExpr) {
		id, ok := ast.Unparen(target).(*ast.Ident)
		if !ok {
			return // stored into a field/element: visible elsewhere, assume read
		}
		if id.Name == "_" {
			s.report(call.Pos(), "error from %s is assigned to _ — check it", callName(call))
			return
		}
		obj := objOf(s.info, id)
		if obj == nil || s.exempt[obj] {
			return
		}
		d := errDef{obj: obj, pos: pos}
		if _, seen := s.defs[d]; !seen {
			s.defs[d] = callName(call)
			s.order = append(s.order, d)
		}
		st[d] = true
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		// Tuple form: a, err := call() — the error is the last result.
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && s.idx.isSourceCall(s.f, call) {
			bind(lhs[len(lhs)-1], call)
		}
		return
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i, r := range rhs {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && s.idx.isSourceCall(s.f, call) {
			bind(lhs[i], call)
		}
	}
}

// uses marks every def of a variable read somewhere under n as live.
func (s *errflowScan) uses(n ast.Node, st reachSet) {
	nodeWalk(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if obj, ok := s.info.Uses[id].(*types.Var); ok {
				for d := range st {
					if d.obj == obj {
						s.used[d] = true
					}
				}
			}
		}
		return true
	})
}

func (s *errflowScan) kill(obj *types.Var, st reachSet) {
	if obj == nil {
		return
	}
	for d := range st {
		if d.obj == obj {
			delete(st, d)
		}
	}
}

func objOf(info *types.Info, id *ast.Ident) *types.Var {
	if obj, ok := info.Defs[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// exemptVars collects the variables the dead-assignment check must not
// track: captured by a function literal, address-taken, or named results
// (read implicitly by naked returns).
func exemptVars(f *Func) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if f.Decl != nil && f.Decl.Type.Results != nil {
		for _, field := range f.Decl.Type.Results.List {
			for _, name := range field.Names {
				if obj, ok := f.Pkg.Info.Defs[name].(*types.Var); ok {
					out[obj] = true
				}
			}
		}
	}
	if f.Lit != nil && f.Lit.Type.Results != nil {
		for _, field := range f.Lit.Type.Results.List {
			for _, name := range field.Names {
				if obj, ok := f.Pkg.Info.Defs[name].(*types.Var); ok {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if obj, ok := f.Pkg.Info.Uses[id].(*types.Var); ok {
						out[obj] = true
					}
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj, ok := f.Pkg.Info.Uses[id].(*types.Var); ok {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// callName renders a call target for messages: the selector path of the
// call head, e.g. "tm.Sync" or "s.tm.WriteTrack".
func callName(call *ast.CallExpr) string {
	return exprPath(ast.Unparen(call.Fun)) + "()"
}

func exprPath(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprPath(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprPath(x.Fun) + "()"
	case *ast.IndexExpr:
		return exprPath(x.X) + "[...]"
	default:
		return "call"
	}
}
