package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"strings"
)

// Locksafe enforces the repository's documented locking discipline. A
// mutex field annotated
//
//	mu sync.Mutex // guards a, b, c
//
// (or a data field annotated "guarded by mu") may only be accessed through
// the receiver where that mutex, taken through the same receiver, is held
// on every path to the access, or in methods whose name ends in "Locked"
// (the convention for helpers whose callers hold the lock). Writes require
// Lock; RLock only licenses reads. The held sets come from the lock-state
// pass (locks.go), so an access after the Unlock, or in the arm of a branch
// that did not lock, is reported. A function literal inside a method is
// checked against the locks held where it is created as well as its own.
// Cross-struct accesses (x.y.field where x.y is not the receiver) are out
// of scope.
func Locksafe() *Analyzer {
	a := &Analyzer{
		Name: "locksafe",
		Doc:  "fields annotated 'guards'/'guarded by' must be accessed under their mutex",
	}
	a.Run = func(pass *Pass) { runLocksafe(pass) }
	return a
}

var (
	guardsRe    = regexp.MustCompile(`\bguards:?\s+(.+)`)
	guardedByRe = regexp.MustCompile(`\bguarded by\s+(\w+)`)
)

// guardSet maps guarded field name -> mutex field name, per struct type.
type guardSet map[string]string

func runLocksafe(pass *Pass) {
	// structGuards: named struct type -> guarded fields.
	structGuards := make(map[types.Type]guardSet)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj := pass.Info.Defs[ts.Name]
			if obj == nil {
				return true
			}
			if gs := collectGuards(pass, ts.Name.Name, st); len(gs) > 0 {
				structGuards[obj.Type()] = gs
			}
			return true
		})
	}
	if len(structGuards) == 0 {
		return
	}

	locks := locksOf(pass.Prog)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if gs, ok := structGuards[t]; ok {
				g := &guardCheck{pass: pass, locks: locks, recv: recv, gs: gs, writes: writeTargets(fd.Body)}
				g.check(pass.Prog.FuncOf(fn), nil)
			}
		}
	}
}

// collectGuards parses the guard annotations of one struct declaration.
func collectGuards(pass *Pass, typeName string, st *ast.StructType) guardSet {
	fieldNames := make(map[string]bool)
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			fieldNames[n.Name] = true
		}
	}
	gs := make(guardSet)
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			continue
		}
		text := fieldComment(f)
		if text == "" {
			continue
		}
		if m := guardsRe.FindStringSubmatch(text); m != nil {
			mu := f.Names[0].Name
			for _, name := range strings.Split(m[1], ",") {
				name = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(name), "."))
				if name == "" {
					continue
				}
				if !fieldNames[name] {
					pass.Reportf(f.Pos(), "%s.%s guards unknown field %q (annotation must list field names)", typeName, mu, name)
					continue
				}
				gs[name] = mu
			}
		}
		if m := guardedByRe.FindStringSubmatch(text); m != nil {
			mu := m[1]
			if !fieldNames[mu] {
				pass.Reportf(f.Pos(), "%s.%s guarded by unknown field %q", typeName, f.Names[0].Name, mu)
			} else {
				for _, n := range f.Names {
					gs[n.Name] = mu
				}
			}
		}
	}
	return gs
}

func fieldComment(f *ast.Field) string {
	var parts []string
	if f.Doc != nil {
		parts = append(parts, f.Doc.Text())
	}
	if f.Comment != nil {
		parts = append(parts, f.Comment.Text())
	}
	return strings.Join(parts, " ")
}

// guardCheck checks the guarded receiver accesses of one method.
type guardCheck struct {
	pass   *Pass
	locks  *lockIndex
	recv   *types.Var
	gs     guardSet
	writes map[*ast.SelectorExpr]bool
}

// check reports the guarded accesses in f — the method or a literal inside
// it — whose mutex is not held on every path. outer is what is held on
// every path to the literal's creation.
func (g *guardCheck) check(f *Func, outer map[heldLock]bool) {
	g.locks.replay(f, lockHooks{visit: func(n ast.Node, st *lockState) {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := maps.Clone(st.must)
			maps.Copy(inner, outer)
			g.check(g.pass.Prog.byLit[n], inner)
		case *ast.SelectorExpr:
			base, ok := n.X.(*ast.Ident)
			if !ok || g.pass.Info.Uses[base] != g.recv {
				return
			}
			mu, guarded := g.gs[n.Sel.Name]
			if !guarded {
				return
			}
			write, marked := g.writes[n]
			if marked && !write {
				return // the append operand of a write reported at its target
			}
			licensed := func(held map[heldLock]bool) bool {
				for t := range held {
					if t.via == g.recv && t.id.Var.Name() == mu && (!write || !t.read) {
						return true
					}
				}
				return false
			}
			if licensed(st.must) || licensed(outer) {
				return
			}
			kind := "read"
			need := fmt.Sprintf("%s.%s.Lock or RLock", base.Name, mu)
			if write {
				kind = "write"
				need = fmt.Sprintf("%s.%s.Lock", base.Name, mu)
			}
			g.pass.Reportf(n.Pos(), "%s of %s.%s without %s (or name the method *Locked)",
				kind, base.Name, n.Sel.Name, need)
		}
	}})
}

// writeTargets marks selector expressions that are assigned to (or have
// their address taken, conservatively a potential write). In x.f =
// append(x.f, v) the operand x.f maps to false: it is the same write as the
// target, so the statement is reported once.
func writeTargets(body ast.Node) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if _, done := out[sel]; !done {
				out[sel] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				mark(lhs)
				// Writing an element of a guarded map/slice field
				// (s.cache[k] = v) mutates the field.
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					mark(ix.X)
				}
				if len(n.Rhs) == len(n.Lhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isBuiltin(call, "append") {
						if sel, ok := call.Args[0].(*ast.SelectorExpr); ok && types.ExprString(sel) == types.ExprString(lhs) {
							out[sel] = false
						}
					}
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
			if ix, ok := n.X.(*ast.IndexExpr); ok {
				mark(ix.X)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CallExpr:
			// delete(s.cache, k) and append into a guarded slice both
			// mutate; treat the first argument of delete and any guarded
			// field passed to append as writes.
			if isBuiltin(n, "delete") || isBuiltin(n, "append") {
				mark(n.Args[0])
			}
		}
		return true
	})
	return out
}

// isBuiltin reports whether call calls the builtin name with an argument.
func isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name && len(call.Args) > 0
}
