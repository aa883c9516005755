package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is gslint's whole-program layer: every loaded package, a
// conservative call graph over them, and per-function facts (lock events,
// resolved call sites) that the interprocedural analyzers (locksafe,
// lockorder, unlockpath, errflow, bufown, sessionlife) build on. It is
// constructed once per gslint run by BuildProgram and handed to every
// Pass.
//
// Conservatism rules (what the call graph over- and under-approximates):
//
//   - Direct calls and method calls on concrete types resolve to exactly
//     their target when the target is defined in a loaded package.
//     Calls into packages outside the program (stdlib, export-data deps)
//     have no body and are treated as acquiring no program locks and
//     retaining no arguments.
//   - Interface method calls resolve to EVERY method of that name on a
//     program-defined concrete type that implements the interface.
//   - Calls through function values (fields, variables, parameters)
//     resolve to every program function whose address is taken somewhere
//     in the program and whose signature matches the call — including
//     method values and function literals.
//   - A function literal is additionally assumed callable at its creation
//     site (an edge from the enclosing function), so locks acquired by a
//     closure are charged against locks held where the closure is made.
//     This over-approximates `defer`red and stored closures and treats
//     spawned goroutines as calls — deliberate: a goroutine spawned and
//     awaited under a lock orders locks exactly as a call does.
//   - Lock identity is the mutex *field* (or package-level variable): all
//     instances of a struct type share one lock node. Function-local
//     mutexes and mutexes embedded anonymously are out of scope.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs []*Func // deterministic order: package load order, then position

	byObj   map[*types.Func]*Func
	byLit   map[*ast.FuncLit]*Func
	byPath  map[string]*Package
	named   []*types.Named          // program-defined named types
	taken   map[string][]*Func      // sigKey -> address-taken functions
	ifaceMu map[ifaceMethod][]*Func // interface dispatch cache
	memo    map[string]any          // per-analyzer whole-program results
	cfgs    map[*Func]*CFG          // lazily built control-flow graphs
	sites   map[ast.Node]*Call      // call expression or literal -> its Call
}

type ifaceMethod struct {
	iface *types.Interface
	name  string
}

// Func is one function or method body in the program, with the summaries
// the interprocedural analyzers need.
type Func struct {
	Name string      // display name: pkg.Fn, pkg.(*T).M, or pkg.Fn.func@line
	Obj  *types.Func // nil for function literals
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package
	Body *ast.BlockStmt

	Calls []Call      // resolved call sites, ascending position
	Locks []LockEvent // mutex operations, ascending position

	rawCalls []*ast.CallExpr
}

// Call is one call site and its resolved static targets. Dynamic reports
// whether resolution went through interface dispatch or signature matching
// (and may therefore include functions never actually called here).
type Call struct {
	Pos     token.Pos
	Callees []*Func
	Dynamic bool

	site ast.Node // the *ast.CallExpr, or the *ast.FuncLit of a creation site
}

// LockOp distinguishes acquisitions from releases.
type LockOp uint8

// Lock operations.
const (
	LockAcquire LockOp = iota
	LockRelease
)

// LockEvent is one mutex operation inside a function body.
type LockEvent struct {
	Pos      token.Pos
	Lock     LockID
	Op       LockOp
	Read     bool // RLock/RUnlock
	Deferred bool // directly deferred: runs at function exit
	// Via is the variable the mutex field is selected from (c in
	// c.mu.Lock()), or nil when the lock expression is any other shape.
	Via types.Object
}

// LockID names one program lock: a sync.Mutex/RWMutex struct field or
// package-level variable. All instances of the owning struct share the ID.
type LockID struct {
	Var  *types.Var
	name string
}

func (l LockID) String() string { return l.name }

// Valid reports whether the ID names a lock.
func (l LockID) Valid() bool { return l.Var != nil }

// BuildProgram links the packages into a Program: it creates a Func node
// for every function, method and function literal body, records their lock
// events, and resolves every call site per the conservatism rules above.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:    pkgs,
		byObj:   make(map[*types.Func]*Func),
		byLit:   make(map[*ast.FuncLit]*Func),
		byPath:  make(map[string]*Package),
		taken:   make(map[string][]*Func),
		ifaceMu: make(map[ifaceMethod][]*Func),
		memo:    make(map[string]any),
		cfgs:    make(map[*Func]*CFG),
		sites:   make(map[ast.Node]*Call),
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		p.byPath[pkg.Path] = pkg
		scope := pkg.Pkg.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					p.named = append(p.named, named)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			p.collectFile(pkg, file)
		}
	}
	p.resolveCalls()
	return p
}

// FuncOf returns the program node for a declared function or method, or
// nil when fn is external to the program (or nil).
func (p *Program) FuncOf(fn *types.Func) *Func {
	if fn == nil {
		return nil
	}
	return p.byObj[fn]
}

// StaticCallee returns the single static program target of a call
// expression, or nil for external, dynamic, interface and multi-target
// calls.
func (p *Program) StaticCallee(call *ast.CallExpr) *Func {
	c := p.sites[call]
	if c == nil || c.Dynamic || len(c.Callees) != 1 {
		return nil
	}
	return c.Callees[0]
}

// Once computes a whole-program result at most once per run. Analyzers
// that work globally use it so each per-package pass replays one shared
// computation instead of re-deriving it.
func (p *Program) Once(key string, compute func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := compute()
	p.memo[key] = v
	return v
}

// collectFile creates Func nodes for a file's declarations, including
// function literals inside them.
func (p *Program) collectFile(pkg *Package, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
			f := &Func{
				Name: declName(pkg, d, obj),
				Obj:  obj,
				Decl: d,
				Pkg:  pkg,
				Body: d.Body,
			}
			p.Funcs = append(p.Funcs, f)
			if obj != nil {
				p.byObj[obj] = f
			}
			p.walkBody(pkg, f, d.Body)
		case *ast.GenDecl:
			// Function literals in package-level initializers get their
			// own (parentless) nodes so stored closures stay reachable
			// through signature matching.
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					p.litNode(pkg, nil, lit)
					return false
				}
				return true
			})
		}
	}
}

func declName(pkg *Package, d *ast.FuncDecl, obj *types.Func) string {
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := "?"
		if obj != nil {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv = types.TypeString(sig.Recv().Type(), types.RelativeTo(pkg.Pkg))
			}
		}
		return fmt.Sprintf("%s.(%s).%s", pkg.Pkg.Name(), recv, d.Name.Name)
	}
	return pkg.Pkg.Name() + "." + d.Name.Name
}

// litNode creates (and registers) the node for a function literal and
// walks its body. parent, when non-nil, is assumed to call the literal at
// its creation position.
func (p *Program) litNode(pkg *Package, parent *Func, lit *ast.FuncLit) *Func {
	base := pkg.Pkg.Name()
	if parent != nil {
		base = parent.Name
	}
	f := &Func{
		Name: fmt.Sprintf("%s.func@%s", base, shortPos(pkg.Fset, lit.Pos())),
		Lit:  lit,
		Pkg:  pkg,
		Body: lit.Body,
	}
	p.Funcs = append(p.Funcs, f)
	p.byLit[lit] = f
	if parent != nil {
		parent.Calls = append(parent.Calls, Call{Pos: lit.Pos(), Callees: []*Func{f}, site: lit})
	}
	p.walkBody(pkg, f, lit.Body)
	return f
}

// walkBody records f's lock events and raw call sites, creating child
// nodes for nested function literals (whose bodies it does not descend
// into — they are their own functions).
func (p *Program) walkBody(pkg *Package, f *Func, body *ast.BlockStmt) {
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			// The call expression itself runs deferred; its arguments are
			// evaluated immediately, but for lock summaries only the
			// deferred Unlock matters.
			walk(n.Call, true)
			return
		case *ast.FuncLit:
			p.litNode(pkg, f, n)
			return
		case *ast.CallExpr:
			if ev, ok := lockEventOf(pkg.Info, n, deferred); ok {
				f.Locks = append(f.Locks, ev)
			} else {
				f.rawCalls = append(f.rawCalls, n)
			}
			walk(n.Fun, false)
			for _, a := range n.Args {
				walk(a, false)
			}
			return
		}
		deferredHere := false // defer applies to the outermost call only
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, deferredHere)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt, false)
	}
	sort.Slice(f.Locks, func(i, j int) bool { return f.Locks[i].Pos < f.Locks[j].Pos })
}

// lockEventOf recognizes x.mu.Lock() / RLock / Unlock / RUnlock where the
// lock resolves to a struct field or package-level sync.Mutex/RWMutex.
func lockEventOf(info *types.Info, call *ast.CallExpr, deferred bool) (LockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return LockEvent{}, false
	}
	var op LockOp
	var read bool
	switch sel.Sel.Name {
	case "Lock":
		op = LockAcquire
	case "RLock":
		op, read = LockAcquire, true
	case "Unlock":
		op = LockRelease
	case "RUnlock":
		op, read = LockRelease, true
	default:
		return LockEvent{}, false
	}
	id, ok := lockIDOf(info, sel.X)
	if !ok {
		return LockEvent{}, false
	}
	ev := LockEvent{Pos: call.Pos(), Lock: id, Op: op, Read: read, Deferred: deferred}
	if field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if base, ok := ast.Unparen(field.X).(*ast.Ident); ok {
			ev.Via = info.Uses[base]
		}
	}
	return ev, true
}

// lockIDOf resolves the expression a Lock/Unlock method is called on to a
// lock identity. Struct fields (through any selector chain) and
// package-level variables qualify; function-local mutexes do not.
func lockIDOf(info *types.Info, x ast.Expr) (LockID, bool) {
	x = ast.Unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil {
			v, ok := s.Obj().(*types.Var)
			if !ok || !v.IsField() || !isMutexType(v.Type()) {
				return LockID{}, false
			}
			owner := ownerName(s.Recv())
			return LockID{Var: v, name: pkgName(v) + owner + "." + v.Name()}, true
		}
		// pkg.Mu: a package-qualified variable.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && isMutexType(v.Type()) {
			return LockID{Var: v, name: pkgName(v) + v.Name()}, true
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() && isMutexType(v.Type()) {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return LockID{Var: v, name: pkgName(v) + v.Name()}, true
			}
		}
	}
	return LockID{}, false
}

func pkgName(v *types.Var) string {
	if v.Pkg() == nil {
		return ""
	}
	return v.Pkg().Name() + "."
}

func ownerName(recv types.Type) string {
	for {
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
			continue
		}
		break
	}
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.TypeString(recv, nil)
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// resolveCalls runs after every node exists: it registers address-taken
// functions, then resolves each raw call site to its targets.
func (p *Program) resolveCalls() {
	// Which expressions are call heads (not value references)?
	callHeads := make(map[ast.Node]bool)
	for _, f := range p.Funcs {
		for _, call := range f.rawCalls {
			callHeads[ast.Unparen(call.Fun)] = true
		}
	}
	// Address-taken named functions and methods: any reference outside a
	// call head. Function literals: taken unless invoked where written.
	for _, f := range p.Funcs {
		if f.Lit != nil && !callHeads[f.Lit] {
			p.take(f)
		}
	}
	for _, pkg := range p.Pkgs {
		takeObj := func(obj types.Object) {
			if fn, ok := obj.(*types.Func); ok {
				if target := p.byObj[fn]; target != nil {
					p.take(target)
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !callHeads[n] {
					takeObj(pkg.Info.Uses[n])
				}
			case *ast.SelectorExpr:
				// x.M as a value is a method-value reference; x.M(...) is
				// not. Either way the Sel ident must not be revisited on
				// its own (it names the same *types.Func), so recurse
				// into the base only.
				if !callHeads[n] {
					takeObj(pkg.Info.Uses[n.Sel])
				}
				ast.Inspect(n.X, visit)
				return false
			}
			return true
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, visit)
		}
	}
	for _, funcs := range p.taken {
		sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })
	}
	for _, f := range p.Funcs {
		for _, call := range f.rawCalls {
			if c, ok := p.resolveCall(f.Pkg, call); ok {
				c.site = call
				f.Calls = append(f.Calls, c)
			}
		}
		f.rawCalls = nil
		sort.Slice(f.Calls, func(i, j int) bool { return f.Calls[i].Pos < f.Calls[j].Pos })
		for i := range f.Calls {
			p.sites[f.Calls[i].site] = &f.Calls[i]
		}
	}
}

func (p *Program) take(f *Func) {
	key := p.sigKeyOf(f)
	if key == "" {
		return
	}
	for _, existing := range p.taken[key] {
		if existing == f {
			return
		}
	}
	p.taken[key] = append(p.taken[key], f)
}

// sigKeyOf returns the receiver-less signature key of a function node.
func (p *Program) sigKeyOf(f *Func) string {
	var sig *types.Signature
	switch {
	case f.Obj != nil:
		sig, _ = f.Obj.Type().(*types.Signature)
	case f.Lit != nil:
		if tv, ok := f.Pkg.Info.Types[f.Lit]; ok {
			sig, _ = tv.Type.(*types.Signature)
		}
	}
	if sig == nil {
		return ""
	}
	return sigKey(sig)
}

// sigKey renders a signature without its receiver, with full package
// paths, so method values and plain functions compare equal.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteString("func(")
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	b.WriteString(")")
	return b.String()
}

// resolveCall resolves one call site. ok is false for type conversions
// and builtins (no call at all).
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) (Call, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return Call{}, false // conversion
	}
	// Generic instantiation: unwrap the index expression.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return Call{Pos: call.Pos(), Callees: []*Func{p.byLit[fun]}}, true
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	switch obj := obj.(type) {
	case *types.Builtin:
		return Call{}, false
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				return Call{Pos: call.Pos(), Callees: p.implementers(iface, obj), Dynamic: true}, true
			}
		}
		if target := p.byObj[obj]; target != nil {
			return Call{Pos: call.Pos(), Callees: []*Func{target}}, true
		}
		// Generic instantiations use a distinct *types.Func; fall back to
		// the origin declaration.
		if origin := obj.Origin(); origin != obj {
			if target := p.byObj[origin]; target != nil {
				return Call{Pos: call.Pos(), Callees: []*Func{target}}, true
			}
		}
		return Call{Pos: call.Pos()}, true // external function
	}
	// Dynamic: a call through a function value. Conservatively target
	// every address-taken program function with a matching signature.
	if tv, ok := pkg.Info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return Call{Pos: call.Pos(), Callees: p.taken[sigKey(sig)], Dynamic: true}, true
		}
	}
	return Call{Pos: call.Pos(), Dynamic: true}, true
}

// implementers resolves an interface method call to every program-defined
// concrete method that can satisfy it.
func (p *Program) implementers(iface *types.Interface, m *types.Func) []*Func {
	key := ifaceMethod{iface: iface, name: m.Name()}
	if cached, ok := p.ifaceMu[key]; ok {
		return cached
	}
	var out []*Func
	seen := make(map[*Func]bool)
	for _, named := range p.named {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if target := p.byObj[fn]; target != nil && !seen[target] {
				seen[target] = true
				out = append(out, target)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	p.ifaceMu[key] = out
	return out
}

// shortPos renders a position as base-filename:line for messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	file := p.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}
