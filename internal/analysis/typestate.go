package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// typestate.go is the per-value finite-state-machine layer the ownership
// analyzers (bufown, sessionlife) share. A TSProtocol names the calls that
// give birth to a tracked value (takePage, sync.Pool.Get, NewSession, ...)
// and the calls that consume it (putPage, Close, ...); the engine then runs
// one state machine per birth site over the function's CFG with the forward
// solver, tracking which local variables may be bound to each value:
//
//	           birth                consume
//	  (none) ───────▶ LIVE ────────────────────▶ CONSUMED
//	                   │
//	                   │ return / store into caller-visible state
//	                   ▼
//	               ESCAPED            complex aliasing ──▶ ⊤ (untracked)
//
// Findings:
//
//   - a LIVE value reaching a non-panic exit with no deferred consume
//     registered on the path is a leak (reported at the birth site, naming
//     every exit it reaches, like unlockpath);
//   - reading a value that is CONSUMED on *every* path reaching the read is
//     a use-after-consume; consuming it again is a double-consume (both are
//     must-checks over the union of path states, so a value merely consumed
//     on one of several inbound paths is not reported);
//   - when the protocol says so, a return or caller-visible store of a LIVE
//     value is an escape finding (bufown: pooled values must stay
//     function-local); otherwise it silently transfers ownership out of the
//     checked function (sessionlife: constructors hand sessions to callers).
//
// Alias tracking is deliberately light, and always fails toward silence:
//
//   - bindings are may-sets: `y := x` binds both names to the cell;
//     `x = append(x, ...)` and other self-derived reassignments keep the
//     binding;
//   - variables captured by a function literal, address-taken, or named
//     results are never tracked (exemptVars); assigning a value to one
//     sends its cell to ⊤;
//   - a store through a variable declared *inside* the body (a local
//     composite, `shards[i].fork = ...`) is ⊤, not an escape — the checker
//     cannot tell a local structure from a smuggled caller pointer, so it
//     stays quiet; stores through parameters, receivers and package-level
//     variables are escapes;
//   - indexing/slicing a tracked value produces an untracked value, and a
//     deferred consume registered on a path covers every later exit on
//     that path (the unlockpath defer rule).
//
// Interprocedural effect summaries follow the lock-effect style: a call
// passing a tracked value to a program function that consumes that
// parameter on every non-panic return (a put/close wrapper) counts as the
// consume, resolved over static single-target edges with a cycle cut.
// Dynamic, interface and external callees contribute nothing — they are
// treated as borrowing their arguments.

// Cell states. The dataflow state unions the bits a value may be in across
// the paths reaching a program point, so "bits == tsConsumed" means
// consumed on every path (a must-fact), while "bits & tsLive != 0" means
// live on some path (a may-fact).
const (
	tsLive     uint8 = 1 << iota // born, not yet consumed
	tsConsumed                   // consumed: put back / closed
	tsEscaped                    // ownership left the function
	tsTop                        // aliasing too complex: stop tracking
)

// cellID identifies one tracked value by its birth site.
type cellID token.Pos

// TSProtocol is one ownership discipline for the typestate engine.
type TSProtocol struct {
	// Birth recognizes a call creating a tracked value, returning a short
	// description for messages ("pooled buffer from takePage()") and the
	// index of the call result that carries the value.
	Birth func(f *Func, call *ast.CallExpr) (desc string, result int, ok bool)
	// Consume recognizes a call ending a tracked value's lifetime,
	// returning the consumed expression (an argument or the method
	// receiver) and the verb for messages ("returned to its pool").
	Consume func(f *Func, call *ast.CallExpr) (target ast.Expr, verb string, ok bool)
	// SkipFunc exempts whole function bodies — the pool accessors
	// themselves, whose internal Get/Put is the mechanism being wrapped.
	SkipFunc func(f *Func) bool
	// EscapeIsFinding: a store of a live value into caller-visible state
	// (or a goroutine/channel handoff) is a finding rather than a silent
	// ownership transfer.
	EscapeIsFinding bool
	// ReturnIsFinding: returning a live value is a finding rather than a
	// transfer of ownership to the caller.
	ReturnIsFinding bool
	// Consumed is the past-participle phrase for messages: "returned to
	// its pool", "closed".
	Consumed string
	// FixHint closes the leak message: what the author should do.
	FixHint string
}

type tsFinding struct {
	pos token.Pos
	msg string
}

// tsIndex carries the per-run caches shared across functions: the
// per-parameter consume summaries.
type tsIndex struct {
	prog     *Program
	proto    *TSProtocol
	consumed map[*Func][]int8 // per-parameter: 0 unknown, 1 consumes, 2 not
	onSum    map[*Func]bool   // summary recursion cut
}

// RunTypestate checks every in-scope function against the protocol and
// returns the findings sorted by position.
func RunTypestate(prog *Program, proto *TSProtocol, paths []string) []tsFinding {
	idx := &tsIndex{
		prog:     prog,
		proto:    proto,
		consumed: make(map[*Func][]int8),
		onSum:    make(map[*Func]bool),
	}
	scope := &Analyzer{Paths: paths}
	var out []tsFinding
	for _, f := range prog.Funcs {
		if !scope.applies(f.Pkg.Path) {
			continue
		}
		if proto.SkipFunc != nil && proto.SkipFunc(f) {
			continue
		}
		if !idx.hasBirth(f) {
			continue // the cheap gate: no births, nothing to track
		}
		out = append(out, idx.checkFunc(f)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].msg < out[j].msg
	})
	return out
}

// hasBirth reports whether f's body contains a direct birth call.
func (idx *tsIndex) hasBirth(f *Func) bool {
	found := false
	nodeWalk(f.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, ok := idx.proto.Birth(f, call); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// tsState is the dataflow state: which cells each local may be bound to,
// each cell's state bits, the cells covered by a deferred consume, and
// each cell's error sibling — the error result born in the same tuple
// (`s, err := NewSession()`). A return that propagates the sibling while
// it still holds the birth's result is the constructor's failure path: the
// value is nil there, not leaked. Reassigning the error variable severs
// the association.
type tsState struct {
	bind   map[*types.Var]map[cellID]bool
	cells  map[cellID]uint8
	defers map[cellID]bool
	errs   map[cellID]*types.Var
}

func newTsState() *tsState {
	return &tsState{
		bind:   make(map[*types.Var]map[cellID]bool),
		cells:  make(map[cellID]uint8),
		defers: make(map[cellID]bool),
		errs:   make(map[cellID]*types.Var),
	}
}

func (s *tsState) clone() *tsState {
	c := &tsState{
		bind:   make(map[*types.Var]map[cellID]bool, len(s.bind)),
		cells:  make(map[cellID]uint8, len(s.cells)),
		defers: make(map[cellID]bool, len(s.defers)),
		errs:   make(map[cellID]*types.Var, len(s.errs)),
	}
	for v, set := range s.bind {
		cp := make(map[cellID]bool, len(set))
		for id := range set {
			cp[id] = true
		}
		c.bind[v] = cp
	}
	for id, bits := range s.cells {
		c.cells[id] = bits
	}
	for id := range s.defers {
		c.defers[id] = true
	}
	for id, v := range s.errs {
		c.errs[id] = v
	}
	return c
}

func tsJoin(a, b any) any {
	x, y := a.(*tsState), b.(*tsState)
	j := x.clone()
	for v, set := range y.bind {
		if j.bind[v] == nil {
			j.bind[v] = make(map[cellID]bool, len(set))
		}
		for id := range set {
			j.bind[v][id] = true
		}
	}
	for id, bits := range y.cells {
		j.cells[id] |= bits
	}
	for id := range y.defers {
		j.defers[id] = true
	}
	for id, v := range y.errs {
		if j.errs[id] == nil {
			j.errs[id] = v
		}
	}
	return j
}

func tsEqual(a, b any) bool {
	x, y := a.(*tsState), b.(*tsState)
	if len(x.bind) != len(y.bind) || len(x.cells) != len(y.cells) || len(x.defers) != len(y.defers) || len(x.errs) != len(y.errs) {
		return false
	}
	for v, set := range x.bind {
		o, ok := y.bind[v]
		if !ok || len(o) != len(set) {
			return false
		}
		for id := range set {
			if !o[id] {
				return false
			}
		}
	}
	for id, bits := range x.cells {
		if y.cells[id] != bits {
			return false
		}
	}
	for id := range x.defers {
		if !y.defers[id] {
			return false
		}
	}
	for id, v := range x.errs {
		if y.errs[id] != v {
			return false
		}
	}
	return true
}

// tsScan carries one function's check: cell metadata (stable across the
// fixpoint), the exempt variables, and the findings. Findings that depend
// on the flow state (use-after-consume, double-consume, escapes) are only
// reported during the post-fixpoint replay, when every block's in-state is
// final — a verdict taken mid-fixpoint could be invalidated as states grow.
type tsScan struct {
	idx       *tsIndex
	f         *Func
	info      *types.Info
	exempt    map[*types.Var]bool
	desc      map[cellID]string
	order     []cellID
	reporting bool
	seen      map[string]bool
	finds     []tsFinding
}

func (idx *tsIndex) checkFunc(f *Func) []tsFinding {
	s := &tsScan{
		idx:    idx,
		f:      f,
		info:   f.Pkg.Info,
		exempt: exemptVars(f),
		desc:   make(map[cellID]string),
		seen:   make(map[string]bool),
	}
	cfg := idx.prog.CFGOf(f)
	transfer := func(b *Block, in any) any {
		st := in.(*tsState).clone()
		for _, n := range b.Nodes {
			s.node(n, st)
		}
		return st
	}
	res := cfg.Forward(FlowSpec{
		Init:     func() any { return newTsState() },
		Transfer: transfer,
		Join:     tsJoin,
		Equal:    tsEqual,
	})

	// Replay every reachable block once against its final in-state with
	// reporting on. Block order makes the findings deterministic.
	s.reporting = true
	for _, b := range cfg.Blocks {
		if in, ok := res.In[b].(*tsState); ok {
			transfer(b, in)
		}
	}

	// Leaks: one finding per cell, at its birth, naming every non-panic
	// exit it reaches live without a deferred consume.
	exits := make(map[cellID][]string)
	for _, b := range cfg.ExitPreds() {
		if _, isPanic := b.Term.(*ast.CallExpr); isPanic {
			continue // a panic path is not a normal exit; unwinding is not a leak
		}
		st, ok := res.Out[b].(*tsState)
		if !ok {
			continue
		}
		ret, _ := b.Term.(*ast.ReturnStmt)
		for id, bits := range st.cells {
			if bits&tsLive == 0 || st.defers[id] {
				continue
			}
			// An exit returning the error born alongside the value — or one
			// reached only through the `sibling != nil` guard itself (the
			// bare `return` inside the guard of a void function) — is the
			// constructor's failure path: the value is nil there, not
			// leaked. (A reassigned error variable severs the association,
			// so a genuine later `return err` still counts.)
			if ev := st.errs[id]; ev != nil {
				if ret != nil && readsVar(s.info, ret, ev) {
					continue
				}
				if errGuardedExit(b, ev, s.info) {
					continue
				}
			}
			exits[id] = append(exits[id], exitDesc(idx.prog.Fset, b))
		}
	}
	out := s.finds
	for _, id := range s.order {
		descs := exits[id]
		if len(descs) == 0 {
			continue
		}
		sort.Strings(descs)
		out = append(out, tsFinding{
			pos: token.Pos(id),
			msg: fmt.Sprintf("%s in %s is not %s on every path: still live at %s — %s",
				s.desc[id], f.Name, idx.proto.Consumed, strings.Join(descs, ", "), idx.proto.FixHint),
		})
	}
	return out
}

// report records a finding once per (kind, position), surviving both the
// fixpoint re-runs and the replay pass.
func (s *tsScan) report(kind string, pos token.Pos, format string, args ...any) {
	if !s.reporting {
		return
	}
	key := fmt.Sprintf("%s:%d", kind, pos)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.finds = append(s.finds, tsFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// node transfers one CFG node through the state.
func (s *tsScan) node(n ast.Node, st *tsState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		s.assign(n.Lhs, n.Rhs, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					s.assign(lhs, vs.Values, st)
				}
			}
		}
	case *ast.DeferStmt:
		s.call(n.Call, st, true)
	case *ast.GoStmt:
		// The spawned call's own effects belong to its goroutine; a
		// tracked value handed to it crosses the lifetime boundary.
		s.walkEval(n.Call.Fun, st)
		for _, a := range n.Call.Args {
			cells := s.eval(a, st)
			s.escape(cells, a.Pos(), "the goroutine handoff", st)
		}
	case *ast.SendStmt:
		s.walkEval(n.Chan, st)
		cells := s.eval(n.Value, st)
		s.escape(cells, n.Value.Pos(), "the channel send", st)
	case *ast.ExprStmt:
		s.eval(n.X, st)
	case *ast.ReturnStmt:
		s.ret(n, st)
	case *ast.IncDecStmt:
		s.walkEval(n.X, st)
	default:
		s.walkEval(n, st)
	}
}

// eval walks one expression in source order, applying birth/consume events
// and use checks, and returns the cells the expression's value may denote.
func (s *tsScan) eval(n ast.Expr, st *tsState) map[cellID]bool {
	switch e := ast.Unparen(n).(type) {
	case *ast.Ident:
		return s.use(e, st)
	case *ast.CallExpr:
		return s.call(e, st, false)
	case *ast.TypeAssertExpr:
		return s.eval(e.X, st) // pool.Get().(*T) aliases the Get result
	default:
		s.walkEval(e, st)
		return nil
	}
}

// walkEval traverses an arbitrary node: idents are use-checked, nested
// calls get their events, function literal bodies are pruned (they are
// their own functions).
func (s *tsScan) walkEval(n ast.Node, st *tsState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			s.call(c, st, false)
			return false
		case *ast.Ident:
			s.use(c, st)
			return false
		}
		return true
	})
}

// use checks one variable read: a value already consumed on every path
// reaching the read is a use-after-consume. Returns the cells bound.
func (s *tsScan) use(id *ast.Ident, st *tsState) map[cellID]bool {
	obj, ok := s.info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	set := st.bind[obj]
	if c, ok := mustConsumed(set, st); ok {
		s.report("use", id.Pos(), "%s is read through %s after it was already %s on every path reaching this point — a use-after-%s race",
			s.desc[c], id.Name, s.idx.proto.Consumed, consumeNoun(s.idx.proto.Consumed))
	}
	return set
}

// mustConsumed returns the lowest cell in set whose state is exactly
// CONSUMED (consumed on every inbound path), if any.
func mustConsumed(set map[cellID]bool, st *tsState) (cellID, bool) {
	best, found := cellID(0), false
	for c := range set {
		if st.cells[c] == tsConsumed && (!found || c < best) {
			best, found = c, true
		}
	}
	return best, found
}

// consumeNoun shortens the consumed phrase for the "use-after-X" tag.
func consumeNoun(consumed string) string {
	if i := strings.IndexByte(consumed, ' '); i > 0 {
		return consumed[:i]
	}
	return consumed
}

// call transfers one call expression and returns the cells its value may
// denote (non-nil only for births).
func (s *tsScan) call(call *ast.CallExpr, st *tsState, deferred bool) map[cellID]bool {
	proto := s.idx.proto
	if target, verb, ok := proto.Consume(s.f, call); ok {
		// Evaluate the non-consumed operands as plain reads. The consumed
		// operand itself is skipped — its read is the consume, reported as
		// a double-consume (not a use-after) when it happens twice.
		tgt := ast.Unparen(target)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && ast.Unparen(sel.X) != tgt {
			s.walkEval(sel.X, st)
		}
		for _, a := range call.Args {
			if ast.Unparen(a) != tgt {
				s.eval(a, st)
			}
		}
		s.consume(target, verb, call.Pos(), st, deferred)
		return nil
	}
	if desc, _, ok := proto.Birth(s.f, call); ok {
		s.walkEval(call.Fun, st)
		for _, a := range call.Args {
			s.eval(a, st)
		}
		id := cellID(call.Pos())
		if _, known := s.desc[id]; !known {
			s.desc[id] = desc
			s.order = append(s.order, id)
		}
		st.cells[id] = tsLive // strong update: a loop re-birth starts fresh
		return map[cellID]bool{id: true}
	}
	// Ordinary call: arguments are borrows, unless the callee's summary
	// says it consumes that parameter on every return.
	s.walkEval(call.Fun, st)
	callee := s.idx.prog.StaticCallee(call)
	for i, a := range call.Args {
		cells := s.eval(a, st)
		if len(cells) == 0 || callee == nil || callee == s.f {
			continue
		}
		if s.idx.paramConsumed(callee, i) {
			s.consumeCells(cells, proto.Consumed, a.Pos(), st, deferred)
		}
	}
	return nil
}

// consume applies a consume event to the cells bound to target.
func (s *tsScan) consume(target ast.Expr, verb string, pos token.Pos, st *tsState, deferred bool) {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		s.eval(target, st) // consuming a field/element: an untracked read
		return
	}
	obj, _ := s.info.Uses[id].(*types.Var)
	if obj == nil {
		return
	}
	s.consumeCells(st.bind[obj], verb, pos, st, deferred)
}

func (s *tsScan) consumeCells(cells map[cellID]bool, verb string, pos token.Pos, st *tsState, deferred bool) {
	if len(cells) == 0 {
		return
	}
	if deferred {
		for c := range cells {
			st.defers[c] = true
		}
		return
	}
	if c, ok := mustConsumed(cells, st); ok {
		s.report("double", pos, "%s is %s again here, but it was already %s on every path reaching this call — a double-%s",
			s.desc[c], verb, verb, consumeNoun(verb))
	}
	for c := range cells {
		st.cells[c] = tsConsumed
	}
}

// escape transfers ownership out of the function: a finding when the
// protocol forbids it, a silent state change otherwise.
func (s *tsScan) escape(cells map[cellID]bool, pos token.Pos, how string, st *tsState) {
	if len(cells) == 0 {
		return
	}
	if s.idx.proto.EscapeIsFinding {
		best, found := cellID(0), false
		for c := range cells {
			if st.cells[c]&tsLive != 0 && (!found || c < best) {
				best, found = c, true
			}
		}
		if found {
			s.report("escape", pos, "%s escapes the function through %s — a pooled value stored into caller-visible state outlives its return to the pool",
				s.desc[best], how)
		}
	}
	for c := range cells {
		st.cells[c] = tsEscaped
	}
}

// top abandons tracking: complex aliasing the engine cannot follow.
func (s *tsScan) top(cells map[cellID]bool, st *tsState) {
	for c := range cells {
		st.cells[c] = tsTop
	}
}

// assign transfers one assignment or value-spec binding.
func (s *tsScan) assign(lhs, rhs []ast.Expr, st *tsState) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Tuple form: v, err := birth() or v, ok := x.(T).
		r := ast.Unparen(rhs[0])
		if call, ok := r.(*ast.CallExpr); ok {
			if _, ri, isBirth := s.idx.proto.Birth(s.f, call); isBirth && ri < len(lhs) {
				cells := s.call(call, st, false)
				for i, l := range lhs {
					if i == ri {
						s.bindTo(l, cells, rhs[0], st)
					} else {
						s.killPlain(l, st)
					}
				}
				// Record the error sibling: `s, err := NewSession()` ties the
				// cell to err, so an exit returning that (unreassigned) err is
				// the constructor's failure path, not a leak.
				for i, l := range lhs {
					if i == ri {
						continue
					}
					id, ok := ast.Unparen(l).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := objOf(s.info, id)
					if obj == nil || !isErrorType(obj.Type()) {
						continue
					}
					for c := range cells {
						st.errs[c] = obj
					}
					break
				}
				return
			}
		}
		cells := s.eval(rhs[0], st)
		if _, isAssert := r.(*ast.TypeAssertExpr); isAssert {
			s.bindTo(lhs[0], cells, rhs[0], st)
			for _, l := range lhs[1:] {
				s.killPlain(l, st)
			}
			return
		}
		for _, l := range lhs {
			s.killPlain(l, st)
		}
		return
	}
	if len(lhs) != len(rhs) {
		for _, r := range rhs {
			s.eval(r, st)
		}
		for _, l := range lhs {
			s.killPlain(l, st)
		}
		return
	}
	cells := make([]map[cellID]bool, len(rhs))
	for i, r := range rhs {
		cells[i] = s.eval(r, st)
	}
	for i, l := range lhs {
		s.bindTo(l, cells[i], rhs[i], st)
	}
}

// killPlain removes a plain identifier's binding (it was reassigned to an
// untracked value) and severs any error-sibling association it carried.
func (s *tsScan) killPlain(l ast.Expr, st *tsState) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
		if obj := objOf(s.info, id); obj != nil {
			delete(st.bind, obj)
			s.severErr(obj, st)
		}
	}
}

// severErr drops error-sibling associations through obj: once the error
// variable is reassigned, returning it no longer proves the birth failed.
func (s *tsScan) severErr(obj *types.Var, st *tsState) {
	for c, v := range st.errs {
		if v == obj {
			delete(st.errs, c)
		}
	}
}

// bindTo routes the cells of one assigned value to its destination.
func (s *tsScan) bindTo(target ast.Expr, cells map[cellID]bool, rhs ast.Expr, st *tsState) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return // an unbound live cell still leaks at exit
		}
		obj := objOf(s.info, t)
		if obj == nil {
			return
		}
		switch {
		case s.exempt[obj]:
			// Captured by a closure, address-taken, or a named result:
			// conservatively untrackable.
			s.top(cells, st)
		case isPkgLevel(obj):
			s.escape(cells, t.Pos(), "the assignment to package-level "+t.Name, st)
		case !s.localVar(obj):
			// A free variable of an enclosing function: the enclosing
			// body owns it, and its own pass cannot see this store — ⊤.
			s.top(cells, st)
		case len(cells) == 0:
			// x = append(x, ...), x = x[:n]: a value derived from itself
			// keeps the binding (and, for an error variable, wrapping the
			// error keeps its sibling association); anything else kills both.
			if !readsVar(s.info, rhs, obj) {
				delete(st.bind, obj)
				s.severErr(obj, st)
			}
		default:
			set := make(map[cellID]bool, len(cells))
			for c := range cells {
				set[c] = true
			}
			st.bind[obj] = set
			s.severErr(obj, st)
		}
	default:
		// x.f = v, m[k] = v, *p = v: the base is read; where the value
		// lands decides escape vs ⊤.
		s.walkEval(t, st)
		if base := baseIdentOf(t); base != nil {
			if obj := objOf(s.info, base); obj != nil && s.bodyLocal(obj) && !s.exempt[obj] {
				s.top(cells, st) // stored into a structure local to the body
				return
			}
		}
		s.escape(cells, target.Pos(), "the store to "+exprPath(target), st)
	}
}

// ret transfers a return statement: per protocol, returning a live value
// is a finding or an ownership transfer to the caller. A tracked value
// returned inside a composite literal (`return &Wrapper{s: s}`) transfers
// the same way — the caller's wrapper owns it now.
func (s *tsScan) ret(n *ast.ReturnStmt, st *tsState) {
	for _, r := range n.Results {
		cells := s.eval(r, st)
		if len(cells) == 0 {
			cells = compositeCells(s.info, r, st)
		}
		if len(cells) == 0 {
			continue
		}
		if s.idx.proto.ReturnIsFinding {
			best, found := cellID(0), false
			for c := range cells {
				if st.cells[c]&tsLive != 0 && (!found || c < best) {
					best, found = c, true
				}
			}
			if found {
				s.report("return", r.Pos(), "%s is returned while still live — ownership of a pooled value must not leave the function; %s",
					s.desc[best], s.idx.proto.FixHint)
			}
		}
		for c := range cells {
			st.cells[c] = tsEscaped
		}
	}
}

// compositeCells collects the cells bound to plain identifiers that sit
// directly inside a returned composite literal (possibly under &), one
// composite level deep per element. The reads themselves were already
// use-checked by eval's walk; this only gathers the bindings so ret can
// apply the ownership-transfer rule.
func compositeCells(info *types.Info, r ast.Expr, st *tsState) map[cellID]bool {
	e := ast.Unparen(r)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var out map[cellID]bool
	var gather func(el ast.Expr)
	gather = func(el ast.Expr) {
		switch el := ast.Unparen(el).(type) {
		case *ast.KeyValueExpr:
			gather(el.Value)
		case *ast.CompositeLit:
			for _, inner := range el.Elts {
				gather(inner)
			}
		case *ast.UnaryExpr:
			if el.Op == token.AND {
				gather(el.X)
			}
		case *ast.Ident:
			obj, _ := info.Uses[el].(*types.Var)
			if obj == nil {
				return
			}
			for c := range st.bind[obj] {
				if out == nil {
					out = make(map[cellID]bool)
				}
				out[c] = true
			}
		}
	}
	for _, el := range lit.Elts {
		gather(el)
	}
	return out
}

// localVar reports whether obj is declared within f (parameters, receiver
// and body locals) — assignment to it stays function-local.
func (s *tsScan) localVar(obj *types.Var) bool {
	start := token.Pos(0)
	switch {
	case s.f.Decl != nil:
		start = s.f.Decl.Pos()
	case s.f.Lit != nil:
		start = s.f.Lit.Pos()
	}
	return obj.Pos() >= start && obj.Pos() < s.f.Body.End()
}

// bodyLocal reports whether obj is declared inside the body proper —
// stricter than localVar: parameters and receivers point at caller-owned
// state, body locals do not (as far as this engine can see).
func (s *tsScan) bodyLocal(obj *types.Var) bool {
	return obj.Pos() > s.f.Body.Pos() && obj.Pos() < s.f.Body.End()
}

// isPkgLevel reports whether obj is a package-level variable.
func isPkgLevel(obj *types.Var) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// errGuardedExit reports whether exit block b is the then-branch of an
// `ev != nil` guard: every predecessor's last executed node is the guard's
// condition and b is its true edge (the CFG builder emits the then-edge
// first). That shape is the birth's error check, where the tracked value
// is nil — the fall-through (false) edge never qualifies.
func errGuardedExit(b *Block, ev *types.Var, info *types.Info) bool {
	if len(b.Preds) == 0 {
		return false
	}
	for _, p := range b.Preds {
		if len(p.Nodes) == 0 || len(p.Succs) == 0 || p.Succs[0] != b {
			return false
		}
		be, ok := p.Nodes[len(p.Nodes)-1].(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return false
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if !(readsIdent(info, x, ev) && isNilIdent(info, y)) &&
			!(readsIdent(info, y, ev) && isNilIdent(info, x)) {
			return false
		}
	}
	return true
}

// readsIdent reports whether e is exactly an identifier reading obj.
func readsIdent(info *types.Info, e ast.Expr, obj *types.Var) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == types.Universe.Lookup("nil")
}

// readsVar reports whether n reads obj anywhere beneath it.
func readsVar(info *types.Info, n ast.Node, obj *types.Var) bool {
	found := false
	nodeWalk(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// baseIdentOf walks a selector/index/star chain to its base identifier.
func baseIdentOf(x ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.StarExpr:
			x = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// paramConsumed reports whether callee consumes its i'th parameter on
// every non-panic return — the put/close-wrapper summary. Conservative:
// unknown shapes, recursion, captured or address-taken parameters and
// path-dependent consumes all answer false.
func (idx *tsIndex) paramConsumed(callee *Func, i int) bool {
	if sum, ok := idx.consumed[callee]; ok && i < len(sum) && sum[i] != 0 {
		return sum[i] == 1
	}
	if idx.onSum[callee] {
		return false // recursion: give up on the back edge
	}
	pv, nparams := paramVarOf(callee, i)
	sum := idx.consumed[callee]
	if sum == nil {
		sum = make([]int8, nparams)
		idx.consumed[callee] = sum
	}
	if pv == nil || i >= len(sum) {
		if i < len(sum) {
			sum[i] = 2
		}
		return false
	}
	if exemptVars(callee)[pv] {
		sum[i] = 2
		return false
	}
	idx.onSum[callee] = true
	defer delete(idx.onSum, callee)

	result := idx.mustConsumeParam(callee, pv)
	if result {
		sum[i] = 1
	} else {
		sum[i] = 2
	}
	return result
}

// paramVarOf returns the object of callee's i'th parameter and the total
// parameter count (variadic parameters are not summarized).
func paramVarOf(callee *Func, i int) (*types.Var, int) {
	var ft *ast.FuncType
	switch {
	case callee.Decl != nil:
		ft = callee.Decl.Type
	case callee.Lit != nil:
		ft = callee.Lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil, 0
	}
	total := 0
	var found *types.Var
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			total++
			continue
		}
		for _, name := range field.Names {
			if total == i {
				if _, variadic := field.Type.(*ast.Ellipsis); !variadic {
					found, _ = callee.Pkg.Info.Defs[name].(*types.Var)
				}
			}
			total++
		}
	}
	return found, total
}

// pcState is the summary-analysis state: the variables still aliasing the
// parameter on this path, and whether it has been consumed. Joins are
// must-joins (alias intersection, consumed AND) so the answer only says
// yes when every path agrees.
type pcState struct {
	aliases  map[*types.Var]bool
	consumed bool
}

func (s *pcState) clone() *pcState {
	c := &pcState{aliases: make(map[*types.Var]bool, len(s.aliases)), consumed: s.consumed}
	for v := range s.aliases {
		c.aliases[v] = true
	}
	return c
}

// mustConsumeParam runs the wrapper summary: does every non-panic path
// through callee consume pv?
func (idx *tsIndex) mustConsumeParam(callee *Func, pv *types.Var) bool {
	cfg := idx.prog.CFGOf(callee)
	info := callee.Pkg.Info
	res := cfg.Forward(FlowSpec{
		Init: func() any { return &pcState{aliases: map[*types.Var]bool{pv: true}} },
		Transfer: func(b *Block, in any) any {
			st := in.(*pcState).clone()
			for _, n := range b.Nodes {
				idx.pcNode(callee, info, n, st)
			}
			return st
		},
		Join: func(a, b any) any {
			x, y := a.(*pcState), b.(*pcState)
			j := &pcState{aliases: make(map[*types.Var]bool), consumed: x.consumed && y.consumed}
			for v := range x.aliases {
				if y.aliases[v] {
					j.aliases[v] = true
				}
			}
			return j
		},
		Equal: func(a, b any) bool {
			x, y := a.(*pcState), b.(*pcState)
			if x.consumed != y.consumed || len(x.aliases) != len(y.aliases) {
				return false
			}
			for v := range x.aliases {
				if !y.aliases[v] {
					return false
				}
			}
			return true
		},
	})
	for _, b := range cfg.ExitPreds() {
		if _, isPanic := b.Term.(*ast.CallExpr); isPanic {
			continue
		}
		st, ok := res.Out[b].(*pcState)
		if !ok || !st.consumed {
			return false
		}
	}
	return true
}

// pcNode transfers one node of the wrapper summary. A deferred consume
// counts as consuming (registration order vs later exits is not modeled —
// a deliberate over-approximation noted in the package docs).
func (idx *tsIndex) pcNode(callee *Func, info *types.Info, n ast.Node, st *pcState) {
	aliasIdent := func(e ast.Expr) *types.Var {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok && st.aliases[obj] {
				return obj
			}
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, l := range n.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := objOf(info, id)
				if obj == nil {
					continue
				}
				if aliasIdent(n.Rhs[i]) != nil {
					st.aliases[obj] = true
				} else {
					delete(st.aliases, obj)
				}
			}
		}
		for _, r := range n.Rhs {
			idx.pcCalls(callee, info, r, st, false)
		}
	case *ast.DeferStmt:
		idx.pcCall(callee, info, n.Call, st, true)
	default:
		idx.pcCalls(callee, info, n, st, false)
	}
}

// pcCalls finds every call beneath n and applies pcCall.
func (idx *tsIndex) pcCalls(callee *Func, info *types.Info, n ast.Node, st *pcState, deferred bool) {
	nodeWalk(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			idx.pcCall(callee, info, call, st, deferred)
		}
		return true
	})
}

func (idx *tsIndex) pcCall(callee *Func, info *types.Info, call *ast.CallExpr, st *pcState, deferred bool) {
	_ = deferred // a deferred consume still counts; see pcNode
	if target, _, ok := idx.proto.Consume(callee, call); ok {
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok && st.aliases[obj] {
				st.consumed = true
			}
		}
		return
	}
	next := idx.prog.StaticCallee(call)
	if next == nil || next == callee {
		return
	}
	for i, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok && st.aliases[obj] {
				if idx.paramConsumed(next, i) {
					st.consumed = true
				}
			}
		}
	}
}

// calleeFuncOf resolves a call head to the *types.Func it names, through
// identifiers and selectors (nil for dynamic calls and builtins).
func calleeFuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
