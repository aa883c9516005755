package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Lockorder builds the interprocedural lock-acquisition graph: an edge
// A→B means some call chain acquires mutex B while holding mutex A. A
// cycle in that graph is a potential deadlock — two executions can wait
// on each other's lock — and is reported with the witness call chain for
// every edge of the cycle. Acquiring a lock already held on the same
// chain (a self-edge) is reported as recursive acquisition, which
// self-deadlocks immediately with Go's non-reentrant mutexes.
//
// Lock identity is the mutex field (or package-level variable): all
// instances of a struct type share one graph node, so the analyzer can't
// tell `a.mu` from `b.mu` when a and b are distinct instances of one
// type. Intentional instance-ordered designs (e.g. always locking the
// lower-serial instance first) need a waiver. Held sets are tracked by
// position, like locksafe: an early-return Unlock inside a branch ends
// the held range at the Unlock, under-approximating but avoiding false
// positives on branch-released locks.
func Lockorder(paths ...string) *Analyzer {
	return &Analyzer{
		Name:  "lockorder",
		Doc:   "interprocedural lock-acquisition cycles (potential deadlocks)",
		Paths: paths,
		Run:   runLockorder,
	}
}

// lockPathStep is one hop of a witness chain: a call into callee, or —
// when callee is nil — the acquisition itself.
type lockPathStep struct {
	pos    token.Pos
	callee *Func
	next   *lockPathStep
}

// lockEdge is one ordered pair in the acquisition graph with the first
// witness found for it.
type lockEdge struct {
	from, to LockID
	// Witness: inside fn, `from` is acquired at heldPos; the chain then
	// reaches an acquisition of `to` (chain's final step).
	fn      *Func
	heldPos token.Pos
	chain   *lockPathStep
}

type lockGraph struct {
	edges map[[2]string]*lockEdge
	nodes map[string]LockID
}

func runLockorder(pass *Pass) {
	g := pass.Prog.Once("lockorder", func() any {
		return buildLockGraph(pass.Prog)
	}).(*lockGraph)

	// Self-edges: recursive acquisition.
	var selfs []*lockEdge
	for key, e := range g.edges {
		if key[0] == key[1] {
			selfs = append(selfs, e)
		}
	}
	sort.Slice(selfs, func(i, j int) bool { return selfs[i].from.name < selfs[j].from.name })
	for _, e := range selfs {
		pass.Reportf(e.heldPos, "lock %s is re-acquired while already held: %s (mutexes are not reentrant)",
			e.from, witnessString(pass.Prog.Fset, e))
	}

	// Ordering cycles: strongly connected components with ≥2 locks.
	for _, cycle := range lockCycles(g) {
		var names []string
		for _, id := range cycle {
			names = append(names, id.String())
		}
		var witnesses []string
		var pos token.Pos
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			e := g.edges[[2]string{from.name, to.name}]
			if e == nil {
				continue
			}
			if pos == token.NoPos {
				pos = e.heldPos
			}
			witnesses = append(witnesses, witnessString(pass.Prog.Fset, e))
		}
		pass.Reportf(pos, "lock-order cycle %s → %s: %s",
			strings.Join(names, " → "), names[0], strings.Join(witnesses, "; "))
	}
}

// buildLockGraph computes every function's transitive acquisitions, then
// walks each body in position order tracking the held set and adding an
// edge held→acquired for every acquisition (direct or via a call) under a
// held lock.
func buildLockGraph(prog *Program) *lockGraph {
	acq := &acquireIndex{
		prog: prog,
		memo: make(map[*Func]map[string]*acquireInfo),
		on:   make(map[*Func]bool),
	}
	g := &lockGraph{
		edges: make(map[[2]string]*lockEdge),
		nodes: make(map[string]LockID),
	}
	for _, f := range prog.Funcs {
		walkHeldSets(f, acq, g)
	}
	return g
}

// acquireInfo is one lock a function can transitively acquire, with the
// shortest-discovered witness chain to the acquisition site.
type acquireInfo struct {
	lock  LockID
	chain *lockPathStep
}

// acquireIndex memoizes transitive acquisitions per function. Recursion
// in the call graph is cut with an on-stack guard: a cycle back into a
// function currently being summarized contributes that function's
// already-known acquisitions only, which converges because lock sets only
// grow along the first complete traversal.
type acquireIndex struct {
	prog *Program
	memo map[*Func]map[string]*acquireInfo
	on   map[*Func]bool
}

func (a *acquireIndex) of(f *Func) map[string]*acquireInfo {
	if m, ok := a.memo[f]; ok {
		return m
	}
	if a.on[f] {
		return nil // recursion: contribute nothing on the back edge
	}
	a.on[f] = true
	m := make(map[string]*acquireInfo)
	for i := range f.Locks {
		ev := &f.Locks[i]
		if ev.Op != LockAcquire || ev.Deferred {
			continue
		}
		if _, ok := m[ev.Lock.name]; !ok {
			m[ev.Lock.name] = &acquireInfo{lock: ev.Lock, chain: &lockPathStep{pos: ev.Pos}}
		}
	}
	for i := range f.Calls {
		call := &f.Calls[i]
		for _, callee := range call.Callees {
			for name, info := range a.of(callee) {
				if _, ok := m[name]; !ok {
					m[name] = &acquireInfo{
						lock:  info.lock,
						chain: &lockPathStep{pos: call.Pos, callee: callee, next: info.chain},
					}
				}
			}
		}
	}
	delete(a.on, f)
	a.memo[f] = m
	return m
}

// walkHeldSets replays f's lock events and calls in position order,
// adding edges from every held lock to every acquisition that happens
// under it.
func walkHeldSets(f *Func, acq *acquireIndex, g *lockGraph) {
	type heldLock struct {
		id  LockID
		pos token.Pos
	}
	var held []heldLock

	addEdges := func(to *acquireInfo) {
		for _, h := range held {
			key := [2]string{h.id.name, to.lock.name}
			if _, ok := g.edges[key]; !ok {
				g.edges[key] = &lockEdge{
					from: h.id, to: to.lock,
					fn: f, heldPos: h.pos, chain: to.chain,
				}
				g.nodes[h.id.name] = h.id
				g.nodes[to.lock.name] = to.lock
			}
		}
	}

	li, ci := 0, 0
	for li < len(f.Locks) || ci < len(f.Calls) {
		if ci >= len(f.Calls) || (li < len(f.Locks) && f.Locks[li].Pos <= f.Calls[ci].Pos) {
			ev := &f.Locks[li]
			li++
			switch {
			case ev.Op == LockAcquire && !ev.Deferred:
				addEdges(&acquireInfo{lock: ev.Lock, chain: &lockPathStep{pos: ev.Pos}})
				held = append(held, heldLock{id: ev.Lock, pos: ev.Pos})
			case ev.Op == LockRelease && !ev.Deferred:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].id.name == ev.Lock.name {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			// A deferred Unlock keeps the lock held to function end; a
			// deferred Lock is ignored (it runs after the body).
			continue
		}
		call := &f.Calls[ci]
		ci++
		if len(held) == 0 {
			continue
		}
		for _, callee := range call.Callees {
			sub := acq.of(callee)
			names := make([]string, 0, len(sub))
			for name := range sub {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				info := sub[name]
				addEdges(&acquireInfo{
					lock:  info.lock,
					chain: &lockPathStep{pos: call.Pos, callee: callee, next: info.chain},
				})
			}
		}
	}
}

// witnessString renders one edge's witness call chain.
func witnessString(fset *token.FileSet, e *lockEdge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s holds %s (%s)", e.fn.Name, e.from, shortPos(fset, e.heldPos))
	for step := e.chain; step != nil; step = step.next {
		if step.callee != nil {
			fmt.Fprintf(&b, " → calls %s (%s)", step.callee.Name, shortPos(fset, step.pos))
		} else {
			fmt.Fprintf(&b, " → acquires %s (%s)", e.to, shortPos(fset, step.pos))
		}
	}
	return b.String()
}

// lockCycles finds the multi-lock strongly connected components of the
// graph and returns, for each, its shortest cycle starting from the
// lexicographically smallest lock, so findings are deterministic.
func lockCycles(g *lockGraph) [][]LockID {
	succ := make(map[string][]string)
	for key := range g.edges {
		if key[0] != key[1] {
			succ[key[0]] = append(succ[key[0]], key[1])
		}
	}
	for _, s := range succ {
		sort.Strings(s)
	}
	names := make([]string, 0, len(g.nodes))
	for name := range g.nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	// Tarjan's SCC.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var counter int
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range names {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	var out [][]LockID
	for _, scc := range sccs {
		member := make(map[string]bool, len(scc))
		for _, v := range scc {
			member[v] = true
		}
		sort.Strings(scc)
		start := scc[0]
		cycle := shortestCycle(start, succ, member)
		ids := make([]LockID, len(cycle))
		for i, name := range cycle {
			ids[i] = g.nodes[name]
		}
		out = append(out, ids)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].name < out[j][0].name })
	return out
}

// shortestCycle finds a shortest cycle through start within the SCC via
// breadth-first search.
func shortestCycle(start string, succ map[string][]string, member map[string]bool) []string {
	parent := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range succ[v] {
			if !member[w] {
				continue
			}
			if w == start {
				// Reconstruct start → … → v.
				var rev []string
				for u := v; u != ""; u = parent[u] {
					rev = append(rev, u)
				}
				cycle := make([]string, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					cycle = append(cycle, rev[i])
				}
				return cycle
			}
			if _, seen := parent[w]; !seen {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return []string{start} // unreachable for a true SCC
}
