package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// locks.go is the one lock-state analysis that locksafe, lockorder and
// unlockpath read. Every function that touches a program lock, directly or
// through a callee, gets one forward pass over its CFG (lockFlow), and
// every function gets one summary (lockSummary) that its callers apply:
//
//   - unlockpath reads the acquisitions still outstanding at each exit;
//   - lockorder replays each function and adds an edge from every lock that
//     may be held to each acquisition, direct or through a callee summary;
//   - locksafe replays a method's blocks and asks, at each guarded field
//     access, which locks are held on every incoming path.
//
// Conservatism rules:
//
//   - Lock identity is LockID: all instances of a struct type share one
//     lock. A release ends every outstanding acquisition of the same lock
//     in the same mode (Unlock pairs with Lock, RUnlock with RLock). Only
//     locksafe also asks which variable a lock was taken through (Via).
//   - The state carries a may-held set (held on some path: unlockpath and
//     lockorder) and a must-held set (held on every path: locksafe), so a
//     lock released before an access, or taken in only one arm of a
//     branch, does not guard it. A lock acquired under a condition and
//     released under the same condition elsewhere may be held at an exit.
//   - A deferred release covers every later exit, panics included; a
//     deferred acquisition is ignored (it runs after the body).
//   - A call is charged with every callee's transitive acquisitions. A
//     callee's net effect — the locks it holds or releases on return — is
//     applied only for a statically resolved single-target call whose net
//     effect is the same on every return; dynamic, interface and
//     path-dependent calls change no held set. A go statement is charged
//     with its callee's acquisitions, not its net effect.
//   - A function literal is charged at its creation site like a call, and
//     locksafe checks the accesses inside it against the locks held there
//     as well as its own.
//   - One on-stack guard cuts recursion: a call back into a function whose
//     summary is being computed contributes nothing.
//   - Explicit panic(...) statements are exits; calls that merely may
//     panic are not. Unreachable blocks carry no state and are not checked.

// lockKey is one lock in one mode: Lock/Unlock pair on read=false,
// RLock/RUnlock on read=true.
type lockKey struct {
	id   LockID
	read bool
}

// heldLock is one outstanding acquisition: its key, the variable the lock
// was taken through (nil when unknown) and its site (NoPos in must sets).
type heldLock struct {
	lockKey
	via types.Object
	pos token.Pos
}

// lockState is the dataflow state at one program point.
type lockState struct {
	may    map[heldLock]bool // acquisitions outstanding on some path
	must   map[heldLock]bool // acquisitions outstanding on every path
	defers map[lockKey]bool  // deferred releases registered on some path
	freed  map[lockKey]bool  // locks the caller holds, released on some path
	// mixed marks paths that disagree on defers or freed, or a release of
	// a lock held on only some paths: the net effect is path-dependent.
	mixed bool
}

func newLockState() *lockState {
	return &lockState{may: map[heldLock]bool{}, must: map[heldLock]bool{},
		defers: map[lockKey]bool{}, freed: map[lockKey]bool{}}
}

func (s *lockState) clone() *lockState {
	return &lockState{may: maps.Clone(s.may), must: maps.Clone(s.must),
		defers: maps.Clone(s.defers), freed: maps.Clone(s.freed), mixed: s.mixed}
}

func (s *lockState) acquire(t heldLock) {
	s.may[t] = true
	t.pos = token.NoPos
	s.must[t] = true
}

func (s *lockState) release(k lockKey) {
	some, all := false, false
	for t := range s.may {
		if t.lockKey == k {
			delete(s.may, t)
			some = true
		}
	}
	for t := range s.must {
		if t.lockKey == k {
			delete(s.must, t)
			all = true
		}
	}
	switch {
	case !some:
		s.freed[k] = true
	case !all:
		s.mixed = true
	}
}

func lockJoin(a, b any) any {
	x, y := a.(*lockState), b.(*lockState)
	j := x.clone()
	maps.Copy(j.may, y.may)
	maps.DeleteFunc(j.must, func(t heldLock, _ bool) bool { return !y.must[t] })
	maps.Copy(j.defers, y.defers)
	maps.Copy(j.freed, y.freed)
	j.mixed = x.mixed || y.mixed || !maps.Equal(x.defers, y.defers) || !maps.Equal(x.freed, y.freed)
	return j
}

func lockEqual(a, b any) bool {
	x, y := a.(*lockState), b.(*lockState)
	return x.mixed == y.mixed && maps.Equal(x.may, y.may) && maps.Equal(x.must, y.must) &&
		maps.Equal(x.defers, y.defers) && maps.Equal(x.freed, y.freed)
}

// acquireInfo is one lock a function can transitively acquire, with the
// first witness chain found to the acquisition site.
type acquireInfo struct {
	lock  LockID
	chain *lockPathStep
}

// lockSummary is what a caller sees of a function: every lock it can
// acquire, and its net effect when that is the same on every return.
type lockSummary struct {
	acquires map[string]*acquireInfo // by lock name
	holds    []lockKey               // acquired and still held on return
	releases []lockKey               // released, though the caller took it
}

var noLocks = &lockSummary{}

func (s *lockSummary) empty() bool {
	return len(s.acquires) == 0 && len(s.holds) == 0 && len(s.releases) == 0
}

// lockFlow is the fixpoint of the lock-state pass over one function, with
// what the pass recorded on the way.
type lockFlow struct {
	cfg      *CFG
	res      *FlowResult
	acquires map[string]*acquireInfo // transitive acquisitions, first witness
	fn       *Func
}

// lockIndex memoizes the pass and the summaries for one program.
type lockIndex struct {
	prog  *Program
	sums  map[*Func]*lockSummary
	flows map[*Func]*lockFlow
	on    map[*Func]bool // summaries being computed: the recursion guard
}

// locksOf runs the lock-state pass over every function of the program
// once per run.
func locksOf(prog *Program) *lockIndex {
	return prog.Once("locks", func() any {
		ix := &lockIndex{prog: prog, sums: map[*Func]*lockSummary{},
			flows: map[*Func]*lockFlow{}, on: map[*Func]bool{}}
		for _, f := range prog.Funcs {
			ix.summary(f)
		}
		return ix
	}).(*lockIndex)
}

// summary returns f's lock summary. A function with no lock event whose
// callees all have empty summaries gets the empty one without a pass.
func (ix *lockIndex) summary(f *Func) *lockSummary {
	if s, ok := ix.sums[f]; ok {
		return s
	}
	if ix.on[f] {
		return noLocks
	}
	ix.on[f] = true
	defer delete(ix.on, f)
	quiet := len(f.Locks) == 0
	for _, c := range f.Calls {
		for _, callee := range c.Callees {
			if !ix.summary(callee).empty() {
				quiet = false
			}
		}
	}
	s := noLocks
	if !quiet {
		fl := ix.flow(f)
		s = &lockSummary{acquires: fl.acquires}
		s.holds, s.releases = fl.netEffect()
	}
	ix.sums[f] = s
	return s
}

// flow runs (once) the lock-state pass over f's CFG.
func (ix *lockIndex) flow(f *Func) *lockFlow {
	if fl, ok := ix.flows[f]; ok {
		return fl
	}
	fl := &lockFlow{cfg: ix.prog.CFGOf(f), fn: f, acquires: map[string]*acquireInfo{}}
	note := func(to *acquireInfo, _ *lockState) {
		if _, ok := fl.acquires[to.lock.name]; !ok {
			fl.acquires[to.lock.name] = to
		}
	}
	fl.res = fl.cfg.Forward(FlowSpec{
		Init: func() any { return newLockState() },
		Transfer: func(b *Block, in any) any {
			w := &lockWalk{ix: ix, fl: fl, st: in.(*lockState).clone(), lockHooks: lockHooks{acquired: note}}
			for _, n := range b.Nodes {
				w.node(n)
			}
			return w.st
		},
		Join:  lockJoin,
		Equal: lockEqual,
	})
	ix.flows[f] = fl
	return fl
}

// replay walks f's reachable blocks once more from their fixpoint
// in-states, now that every summary is final, and calls the hooks.
func (ix *lockIndex) replay(f *Func, hooks lockHooks) {
	fl := ix.flow(f)
	for _, b := range fl.cfg.Blocks {
		in, ok := fl.res.In[b].(*lockState)
		if !ok {
			continue
		}
		w := &lockWalk{ix: ix, fl: fl, st: in.clone(), lockHooks: hooks}
		for _, n := range b.Nodes {
			w.node(n)
		}
	}
}

// netEffect is the locks held, and the caller's locks released, on return:
// both empty unless every returning path agrees.
func (fl *lockFlow) netEffect() (holds, releases []lockKey) {
	var eff map[lockKey]int
	for _, b := range fl.cfg.ExitPreds() {
		if _, isPanic := b.Term.(*ast.CallExpr); isPanic {
			continue // panic paths do not return to the caller
		}
		st, ok := fl.res.Out[b].(*lockState)
		if !ok {
			continue
		}
		if st.mixed {
			return nil, nil
		}
		net := make(map[lockKey]int)
		for t := range st.may {
			if t.pos = token.NoPos; !st.must[t] {
				return nil, nil // held on some paths to this return only
			}
			net[t.lockKey] = 1
		}
		for k := range st.freed {
			net[k]--
		}
		for k := range st.defers {
			net[k]--
		}
		maps.DeleteFunc(net, func(_ lockKey, v int) bool { return v == 0 })
		if eff != nil && !maps.Equal(eff, net) {
			return nil, nil
		}
		eff = net
	}
	keys := make([]lockKey, 0, len(eff))
	for k := range eff {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.id.name < b.id.name || a.id.name == b.id.name && !a.read && b.read
	})
	for _, k := range keys {
		if eff[k] > 0 {
			holds = append(holds, k)
		} else {
			releases = append(releases, k)
		}
	}
	return holds, releases
}

// callMode says how a call runs: now, at function exit, or elsewhere (a
// go statement, a literal's creation) so that only its acquisitions count.
type callMode uint8

const (
	callNow callMode = iota
	callDeferred
	callElsewhere
)

// lockHooks are what a walk reports, each with the state in force.
type lockHooks struct {
	visit    func(ast.Node, *lockState)     // before every node
	acquired func(*acquireInfo, *lockState) // at every acquisition
}

// lockWalk applies one block's nodes to a lock state in execution order.
// Function literal bodies are pruned: they are their own functions.
type lockWalk struct {
	ix *lockIndex
	fl *lockFlow
	st *lockState
	lockHooks
}

func (w *lockWalk) node(n ast.Node) {
	if n == nil {
		return
	}
	if w.visit != nil {
		w.visit(n, w.st)
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		w.call(n, callElsewhere)
		return
	case *ast.DeferStmt:
		w.callExpr(n.Call, callDeferred)
		return
	case *ast.GoStmt:
		w.callExpr(n.Call, callElsewhere)
		return
	case *ast.CallExpr:
		w.callExpr(n, callNow)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		w.node(c)
		return false
	})
}

// callExpr evaluates the callee expression and arguments, then the call.
func (w *lockWalk) callExpr(call *ast.CallExpr, mode callMode) {
	w.node(call.Fun)
	for _, a := range call.Args {
		w.node(a)
	}
	ev, ok := lockEventOf(w.fl.fn.Pkg.Info, call, mode == callDeferred)
	if !ok {
		w.call(call, mode)
		return
	}
	k := lockKey{ev.Lock, ev.Read}
	switch {
	case mode == callElsewhere:
	case ev.Op == LockRelease && ev.Deferred:
		w.st.defers[k] = true
	case ev.Op == LockRelease:
		w.st.release(k)
	case !ev.Deferred:
		w.charge(&acquireInfo{lock: ev.Lock, chain: &lockPathStep{pos: ev.Pos}})
		w.st.acquire(heldLock{lockKey: k, via: ev.Via, pos: ev.Pos})
	}
}

// call charges a resolved call site with its callees' acquisitions and,
// for a single static target called now or deferred, its net effect.
func (w *lockWalk) call(site ast.Node, mode callMode) {
	c := w.ix.prog.sites[site]
	if c == nil {
		return
	}
	for _, callee := range c.Callees {
		acq := w.ix.summary(callee).acquires
		names := make([]string, 0, len(acq))
		for name := range acq {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			w.charge(&acquireInfo{lock: acq[name].lock,
				chain: &lockPathStep{pos: c.Pos, callee: callee, next: acq[name].chain}})
		}
	}
	if mode == callElsewhere || c.Dynamic || len(c.Callees) != 1 {
		return
	}
	s := w.ix.summary(c.Callees[0])
	for _, k := range s.releases {
		if mode == callDeferred {
			w.st.defers[k] = true
		} else {
			w.st.release(k)
		}
	}
	if mode == callNow {
		for _, k := range s.holds {
			w.st.acquire(heldLock{lockKey: k, pos: c.Pos})
		}
	}
}

// charge reports one acquisition, direct or through a callee, to the hook.
func (w *lockWalk) charge(to *acquireInfo) {
	if w.acquired != nil {
		w.acquired(to, w.st)
	}
}
