package algebra

import (
	"fmt"
	"sort"

	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/oop"
)

// Translate converts a calculus query into the canonical (naive) algebra
// plan: scans in the order the ranges were written, every predicate
// evaluated at the top, then projection. This is the direct output of the
// calculus→algebra translation algorithm before optimization; benchmarks
// use it as the "no access planning" baseline.
func Translate(q *calculus.Query) (*Plan, error) {
	if len(q.Ranges) == 0 {
		return nil, fmt.Errorf("algebra: query has no ranges")
	}
	var cur Node
	for _, r := range q.Ranges {
		cur = &scanNode{input: cur, v: r.Var, source: r.Source}
	}
	if q.Pred != nil {
		cur = &selectNode{input: cur, pred: q.Pred}
	}
	root := &projectNode{input: cur, fields: q.Target}
	return newPlan(root, q.Target), nil
}

// Optimize converts a calculus query into an optimized plan:
//
//  1. Range reordering: ranges are scheduled greedily, respecting binding
//     dependencies, preferring ranges a predicate or directory filters
//     over pure fan-out, then the smaller estimated result.
//  2. Selection pushdown: each conjunct runs at the earliest point where
//     all its variables are bound.
//  3. Index selection: an equality or comparison between var!path and an
//     expression independent of var becomes a directory probe when the set
//     is resolvable at plan time and a matching directory exists.
//
// The session is consulted for directory availability and set sizes; the
// resulting plan remains valid as data changes (it re-resolves sources at
// run time), though its cost choices reflect planning-time statistics.
func Optimize(q *calculus.Query, s *core.Session) (*Plan, error) {
	return OptimizeWithBound(q, s, nil)
}

// OptimizeWithBound optimizes a query whose expressions may reference the
// given externally bound variables (OPAL locals captured by an embedded
// calculus expression). Their values are supplied at run time via ExecWith.
func OptimizeWithBound(q *calculus.Query, s *core.Session, prebound map[string]bool) (*Plan, error) {
	if len(q.Ranges) == 0 {
		return nil, fmt.Errorf("algebra: query has no ranges")
	}
	conjuncts := calculus.Conjuncts(q.Pred)
	usedPred := make([]bool, len(conjuncts))

	remaining := append([]calculus.Range(nil), q.Ranges...)
	bound := map[string]bool{}
	for v := range prebound {
		bound[v] = true
	}
	var cur Node

	card := 1.0 // estimated cardinality of the intermediate result
	for len(remaining) > 0 {
		// Candidates: ranges whose source variables are already bound. The
		// greedy objective is the System-R style estimated cardinality of
		// the intermediate result after adding the range and applying every
		// conjunct it newly binds (default selectivities: equality 0.1,
		// comparison 0.3, anything else 0.5). A range that filters — some
		// unused conjunct newly applies, or a directory serves it — always
		// goes ahead of one that is pure fan-out, whatever their estimates:
		// fan-out scheduled first multiplies every later scan, and the
		// constant guessed for a dependent range must not outbid a filter
		// just because the filtered set has grown.
		type candidate struct {
			idx     int
			cost    float64 // resulting estimated cardinality
			filters bool
			index   *indexCandidate
		}
		var best *candidate
		for i, r := range remaining {
			fv := map[string]bool{}
			r.Source.FreeVars(fv)
			ok := true
			for v := range fv {
				if !bound[v] && !isGlobalRoot(s, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			size := estimateCost(s, r, bound)
			c := candidate{idx: i}
			if ix := findIndexCandidate(s, r, bound, conjuncts, usedPred); ix != nil {
				c.index = ix
				c.filters = true
				size = 1 // directory probe yields the matching members only
			}
			sel := 1.0
			for j, cj := range conjuncts {
				if usedPred[j] || (c.index != nil && j == c.index.predIdx) {
					continue
				}
				pfv := map[string]bool{}
				cj.FreeVars(pfv)
				applies := pfv[r.Var]
				for v := range pfv {
					if v != r.Var && !bound[v] && !isGlobalRoot(s, v) {
						applies = false
						break
					}
				}
				if applies {
					c.filters = true
					sel *= selectivity(cj)
				}
			}
			c.cost = card * size * sel
			if best == nil || (c.filters && !best.filters) || (c.filters == best.filters && c.cost < best.cost) {
				cc := c
				best = &cc
			}
		}
		if best == nil {
			return nil, fmt.Errorf("algebra: ranges have unresolvable dependencies")
		}
		card = best.cost
		if card < 1 {
			card = 1
		}
		r := remaining[best.idx]
		remaining = append(remaining[:best.idx], remaining[best.idx+1:]...)
		if best.index != nil {
			usedPred[best.index.predIdx] = true
			cur = &indexScanNode{
				input: cur, v: r.Var,
				set: best.index.set, path: best.index.path,
				op: best.index.op, key: best.index.key,
			}
		} else {
			cur = &scanNode{input: cur, v: r.Var, source: r.Source}
		}
		bound[r.Var] = true
		// Push down every not-yet-used conjunct now fully bound.
		for i, c := range conjuncts {
			if usedPred[i] {
				continue
			}
			fv := map[string]bool{}
			c.FreeVars(fv)
			all := true
			for v := range fv {
				if !bound[v] && !isGlobalRoot(s, v) {
					all = false
					break
				}
			}
			if all {
				usedPred[i] = true
				cur = &selectNode{input: cur, pred: c}
			}
		}
	}
	// Any stragglers (shouldn't happen, but keep the plan correct).
	for i, c := range conjuncts {
		if !usedPred[i] {
			cur = &selectNode{input: cur, pred: c}
		}
	}
	root := &projectNode{input: cur, fields: q.Target}
	return newPlan(root, q.Target), nil
}

// OptimizePushdownOnly applies selection pushdown but keeps the ranges in
// the order the calculus was written and never uses directories. It is the
// middle rung of the ablation in DESIGN.md (naive / pushdown-only / full):
// it isolates how much of the optimizer's win comes from pushdown alone
// versus range reordering and index selection.
func OptimizePushdownOnly(q *calculus.Query, s *core.Session) (*Plan, error) {
	if len(q.Ranges) == 0 {
		return nil, fmt.Errorf("algebra: query has no ranges")
	}
	conjuncts := calculus.Conjuncts(q.Pred)
	usedPred := make([]bool, len(conjuncts))
	bound := map[string]bool{}
	var cur Node
	for _, r := range q.Ranges {
		cur = &scanNode{input: cur, v: r.Var, source: r.Source}
		bound[r.Var] = true
		for i, c := range conjuncts {
			if usedPred[i] {
				continue
			}
			fv := map[string]bool{}
			c.FreeVars(fv)
			all := true
			for v := range fv {
				if !bound[v] && !isGlobalRoot(s, v) {
					all = false
					break
				}
			}
			if all {
				usedPred[i] = true
				cur = &selectNode{input: cur, pred: c}
			}
		}
	}
	for i, c := range conjuncts {
		if !usedPred[i] {
			cur = &selectNode{input: cur, pred: c}
		}
	}
	root := &projectNode{input: cur, fields: q.Target}
	return newPlan(root, q.Target), nil
}

func isGlobalRoot(s *core.Session, name string) bool {
	_, ok := s.Global(name)
	return ok
}

// selectivity is the System-R style default fraction of tuples a predicate
// passes.
func selectivity(e calculus.Expr) float64 {
	b, ok := e.(*calculus.Binary)
	if !ok {
		return 0.5
	}
	switch b.Op {
	case calculus.OpEq:
		return 0.1
	case calculus.OpLt, calculus.OpLe, calculus.OpGt, calculus.OpGe:
		return 0.3
	case calculus.OpIn:
		return 0.2
	default:
		return 0.5
	}
}

// estimateCost guesses the cardinality of a range at plan time.
func estimateCost(s *core.Session, r calculus.Range, bound map[string]bool) float64 {
	fv := map[string]bool{}
	r.Source.FreeVars(fv)
	for v := range fv {
		if bound[v] {
			// Dependent range: the fan-out is unknowable at plan time, so
			// assume it is substantial — underestimating would pull an
			// unfiltered nested loop ahead of selective predicates.
			return 64
		}
	}
	// Independent: try to resolve and count. MemberCount reads only the
	// set object's element table — planning never scans member bodies.
	if p, ok := r.Source.(*calculus.Path); ok {
		if o, err := calculus.EvalPath(s, p, calculus.Binding{}); err == nil && o.IsHeap() {
			if n, err := s.MemberCount(o); err == nil {
				return float64(n) + 2
			}
		}
	}
	return 1000 // unknown
}

type indexCandidate struct {
	set     oop.OOP
	path    []string
	op      indexOp
	key     calculus.Expr
	predIdx int
}

// findIndexCandidate looks for a conjunct of the form
// rangeVar!p1!..!pk relop keyExpr (or mirrored) where keyExpr does not
// mention rangeVar, the range source resolves to a set at plan time, and a
// directory on (set, p1..pk) exists.
func findIndexCandidate(s *core.Session, r calculus.Range, bound map[string]bool, conjuncts []calculus.Expr, used []bool) *indexCandidate {
	// The source must resolve now (independent of unbound vars).
	fv := map[string]bool{}
	r.Source.FreeVars(fv)
	for v := range fv {
		if !isGlobalRoot(s, v) && !bound[v] {
			return nil
		}
	}
	srcPath, ok := r.Source.(*calculus.Path)
	if !ok {
		return nil
	}
	// Dependent sources can't be pre-resolved to one set.
	for v := range fv {
		if bound[v] {
			return nil
		}
	}
	setOOP, err := calculus.EvalPath(s, srcPath, calculus.Binding{})
	if err != nil || !setOOP.IsHeap() {
		return nil
	}
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		b, ok := c.(*calculus.Binary)
		if !ok {
			continue
		}
		var op indexOp
		switch b.Op {
		case calculus.OpEq:
			op = ixEq
		case calculus.OpLt:
			op = ixLt
		case calculus.OpLe:
			op = ixLe
		case calculus.OpGt:
			op = ixGt
		case calculus.OpGe:
			op = ixGe
		default:
			continue
		}
		try := func(lhs, rhs calculus.Expr, op indexOp) *indexCandidate {
			p, ok := lhs.(*calculus.Path)
			if !ok || p.Root != r.Var || len(p.Steps) == 0 {
				return nil
			}
			names := make([]string, len(p.Steps))
			for j, st := range p.Steps {
				if st.IsIndex || st.HasAt {
					return nil
				}
				names[j] = st.Name
			}
			// Key side must not mention the range variable and must be
			// evaluable once the outer vars are bound.
			kfv := map[string]bool{}
			rhs.FreeVars(kfv)
			if kfv[r.Var] {
				return nil
			}
			for v := range kfv {
				if !bound[v] && !isGlobalRoot(s, v) {
					return nil
				}
			}
			if _, found := s.FindIndex(setOOP, names); !found {
				return nil
			}
			return &indexCandidate{set: setOOP, path: names, op: op, key: rhs, predIdx: i}
		}
		if cand := try(b.L, b.R, op); cand != nil {
			return cand
		}
		// Mirrored: keyExpr relop var!path.
		mirror := map[indexOp]indexOp{ixEq: ixEq, ixLt: ixGt, ixLe: ixGe, ixGt: ixLt, ixGe: ixLe}
		if cand := try(b.R, b.L, mirror[op]); cand != nil {
			return cand
		}
	}
	return nil
}

// Run parses, optimizes and executes a calculus query in one call.
func Run(s *core.Session, src string) ([]Tuple, Stats, error) {
	q, err := calculus.Parse(src)
	if err != nil {
		return nil, Stats{}, err
	}
	p, err := Optimize(q, s)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Exec(s)
}

// RunNaive parses and executes with the unoptimized translation.
func RunNaive(s *core.Session, src string) ([]Tuple, Stats, error) {
	q, err := calculus.Parse(src)
	if err != nil {
		return nil, Stats{}, err
	}
	p, err := Translate(q)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Exec(s)
}

// SortTuples orders result rows deterministically (by the OOP words of
// their values) for stable comparison in tests and reports.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i].Values, ts[j].Values
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
