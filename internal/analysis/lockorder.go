package analysis

import (
	"fmt"
	"go/token"
	"slices"
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
// The edges come from the lock-state pass (locks.go): an edge starts at
// every lock that may be held where a lock is acquired, directly or
// through a callee's summary. Lock identity is the mutex field (or
// package-level variable): all instances of a struct type share one graph
// node, so the analyzer can't tell `a.mu` from `b.mu` when a and b are
// distinct instances of one type. Intentional instance-ordered designs
// (e.g. always locking the lower-serial instance first) need a waiver.
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

// buildLockGraph replays every function that touches a lock, in program
// order, adding an edge from each lock that may be held to each
// acquisition; an edge keeps its first witness.
func buildLockGraph(prog *Program) *lockGraph {
	locks := locksOf(prog)
	g := &lockGraph{
		edges: make(map[[2]string]*lockEdge),
		nodes: make(map[string]LockID),
	}
	for _, f := range prog.Funcs {
		if locks.flows[f] == nil {
			continue
		}
		locks.replay(f, lockHooks{acquired: func(to *acquireInfo, st *lockState) {
			held := make([]heldLock, 0, len(st.may))
			for t := range st.may {
				held = append(held, t)
			}
			sort.Slice(held, func(i, j int) bool { return held[i].pos < held[j].pos })
			for _, h := range held {
				key := [2]string{h.id.name, to.lock.name}
				if _, ok := g.edges[key]; !ok {
					g.edges[key] = &lockEdge{from: h.id, to: to.lock, fn: f, heldPos: h.pos, chain: to.chain}
					g.nodes[h.id.name] = h.id
					g.nodes[to.lock.name] = to.lock
				}
			}
		}})
	}
	return g
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

// lockCycles finds every group of two or more locks that all reach each
// other and returns, for each, its shortest cycle through the group's
// lexicographically smallest lock, so findings are deterministic. Any
// cycle through a lock stays inside its group, so a breadth-first search
// from each lock in name order finds them.
func lockCycles(g *lockGraph) [][]LockID {
	succ := make(map[string][]string)
	pred := make(map[string][]string)
	for key := range g.edges {
		if key[0] != key[1] {
			succ[key[0]] = append(succ[key[0]], key[1])
			pred[key[1]] = append(pred[key[1]], key[0])
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

	var out [][]LockID
	grouped := make(map[string]bool)
	for _, start := range names {
		if grouped[start] {
			continue
		}
		order, parent := reach(start, succ)
		i := slices.IndexFunc(order, func(u string) bool { return slices.Contains(succ[u], start) })
		if i < 0 {
			continue
		}
		var cycle []LockID
		for u := order[i]; u != ""; u = parent[u] {
			cycle = append([]LockID{g.nodes[u]}, cycle...)
		}
		out = append(out, cycle)
		_, back := reach(start, pred)
		for _, u := range order {
			if _, ok := back[u]; ok {
				grouped[u] = true
			}
		}
	}
	return out
}

// reach visits the locks reachable from start along adj, breadth first,
// and returns them in visit order with each one's parent ("" for start).
func reach(start string, adj map[string][]string) (order []string, parent map[string]string) {
	order, parent = []string{start}, map[string]string{start: ""}
	for i := 0; i < len(order); i++ {
		for _, w := range adj[order[i]] {
			if _, seen := parent[w]; !seen {
				parent[w] = order[i]
				order = append(order, w)
			}
		}
	}
	return order, parent
}
