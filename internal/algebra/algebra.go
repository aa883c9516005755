// Package algebra implements the set algebra and the calculus→algebra
// translation algorithm (§3, §5.1: "We have developed a set algebra, and an
// algorithm to translate a set-calculus expression to a set-algebra
// expression"). The algebra is an iterator tree over variable bindings:
// dependent scans (nested loops over possibly variable-dependent sources),
// directory-backed index scans, selections and a final projection.
//
// Execution is streaming end to end: scans pull members through the storage
// cursors (core.Session.MembersFunc, IndexLookupFunc/IndexRangeFunc) and
// bind them into one reusable slot frame per execution, so no member slice
// and no per-row binding map is ever materialized. The optimizer performs
// the access planning the paper says a declarative syntax enables (§5.2):
// selection pushdown, directory (index) selection, and range reordering by
// estimated cardinality.
package algebra

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/oop"
)

// Tuple is one query result row.
type Tuple struct {
	Labels []string
	Values []oop.OOP
}

// Get returns the value under a label.
func (t Tuple) Get(label string) (oop.OOP, bool) {
	for i, l := range t.Labels {
		if l == label {
			return t.Values[i], true
		}
	}
	return oop.Invalid, false
}

// Stats counts work done during execution, for the experiment harness.
type Stats struct {
	MembersScanned int // bindings produced by sequential scans
	IndexProbes    int // directory lookups / range scans
	PredEvals      int // selection predicate evaluations
}

// frame is the executor's reusable slot-based binding environment. Each
// scan/index-scan node owns one slot, assigned when the plan is built; a
// node re-binds its slot in place for every row it emits, so extending a
// binding costs zero allocations. Values read out of the frame are only
// valid until the producing node's next emission — consumers that retain a
// row (the final projection) must copy what they keep, never alias the
// frame's backing array.
type frame struct {
	vars []string
	vals []oop.OOP
	set  []bool
	base calculus.Env // externally supplied initial binding, if any
}

// LookupVar implements calculus.Env. Inner (later) slots shadow outer ones
// and set slots shadow the base binding, mirroring how the old map clones
// layered each scan's variable over the initial binding.
func (f *frame) LookupVar(name string) (oop.OOP, bool) {
	for i := len(f.vars) - 1; i >= 0; i-- {
		if f.vars[i] == name && f.set[i] {
			return f.vals[i], true
		}
	}
	if f.base != nil {
		return f.base.LookupVar(name)
	}
	return oop.Invalid, false
}

type execCtx struct {
	s     *core.Session
	stats *Stats
	frame *frame
}

// Node is a streaming algebra operator. compile builds the node's drive
// function once per execution: all closures are allocated up front, and the
// per-row work inside them touches only the shared frame.
type Node interface {
	compile(ctx *execCtx, emit func() error) func() error
	describe(indent int, b *strings.Builder)
}

// Explain renders the plan tree.
func Explain(n Node) string {
	var b strings.Builder
	n.describe(0, &b)
	return strings.TrimRight(b.String(), "\n")
}

func pad(indent int, b *strings.Builder) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
}

// --- Scan: sequential (possibly dependent) iteration over a set ---

type scanNode struct {
	input  Node // nil = start of pipeline
	v      string
	source calculus.Expr
	slot   int
}

func (n *scanNode) describe(indent int, b *strings.Builder) {
	pad(indent, b)
	fmt.Fprintf(b, "scan %s in %s\n", n.v, n.source)
	if n.input != nil {
		n.input.describe(indent+1, b)
	}
}

func (n *scanNode) compile(ctx *execCtx, emit func() error) func() error {
	cursor := func(m oop.OOP) error {
		ctx.stats.MembersScanned++
		ctx.frame.vals[n.slot] = m
		ctx.frame.set[n.slot] = true
		return emit()
	}
	body := func() error {
		src, err := calculus.Eval(ctx.s, n.source, ctx.frame)
		if err != nil {
			return err
		}
		if src.Kind == calculus.VNil {
			return nil // empty range
		}
		if src.Kind != calculus.VObj && src.Kind != calculus.VStr {
			return fmt.Errorf("algebra: range source %s is not a set", n.source)
		}
		return ctx.s.MembersFunc(src.O, cursor)
	}
	if n.input == nil {
		return body
	}
	return n.input.compile(ctx, body)
}

// --- IndexScan: directory-backed associative access ---

type indexOp uint8

const (
	ixEq indexOp = iota
	ixLt
	ixLe
	ixGt
	ixGe
)

type indexScanNode struct {
	input Node
	v     string
	set   oop.OOP
	path  []string
	op    indexOp
	key   calculus.Expr // evaluated per input binding
	slot  int
}

func (n *indexScanNode) describe(indent int, b *strings.Builder) {
	pad(indent, b)
	ops := map[indexOp]string{ixEq: "=", ixLt: "<", ixLe: "<=", ixGt: ">", ixGe: ">="}
	fmt.Fprintf(b, "index-scan %s in %v by %s %s %s\n", n.v, n.set, strings.Join(n.path, "!"), ops[n.op], n.key)
	if n.input != nil {
		n.input.describe(indent+1, b)
	}
}

func (n *indexScanNode) compile(ctx *execCtx, emit func() error) func() error {
	cursor := func(m oop.OOP) error {
		ctx.frame.vals[n.slot] = m
		ctx.frame.set[n.slot] = true
		return emit()
	}
	// One key cell per execution, re-filled on every probe, so taking its
	// address for range bounds does not allocate per row.
	var key directory.Key
	body := func() error {
		kv, err := calculus.Eval(ctx.s, n.key, ctx.frame)
		if err != nil {
			return err
		}
		k, ok := valueToKey(kv)
		if !ok {
			return fmt.Errorf("algebra: %s does not evaluate to an indexable key", n.key)
		}
		key = k
		ctx.stats.IndexProbes++
		// A missing directory (dropped between planning and execution)
		// surfaces as core.ErrNoDirectory instead of zero silent rows.
		switch n.op {
		case ixEq:
			return ctx.s.IndexLookupFunc(n.set, n.path, key, cursor)
		case ixLt:
			return ctx.s.IndexRangeFunc(n.set, n.path, nil, &key, true, false, cursor)
		case ixLe:
			return ctx.s.IndexRangeFunc(n.set, n.path, nil, &key, true, true, cursor)
		case ixGt:
			return ctx.s.IndexRangeFunc(n.set, n.path, &key, nil, false, true, cursor)
		default: // ixGe
			return ctx.s.IndexRangeFunc(n.set, n.path, &key, nil, true, true, cursor)
		}
	}
	if n.input == nil {
		return body
	}
	return n.input.compile(ctx, body)
}

// valueToKey converts a calculus value into an index key. ok=false means
// the value has no key form (e.g. an empty char) — never a panic.
func valueToKey(v calculus.Value) (directory.Key, bool) {
	switch v.Kind {
	case calculus.VNil:
		return directory.NilKey(), true
	case calculus.VBool:
		return directory.BoolKey(v.B), true
	case calculus.VNum:
		return directory.NumberKey(v.N), true
	case calculus.VStr:
		return directory.StringKey(v.S), true
	case calculus.VChar:
		r := []rune(v.S)
		if len(r) == 0 {
			return directory.Key{}, false
		}
		return directory.CharKey(r[0]), true
	case calculus.VObj:
		return directory.OOPKey(v.O), true
	}
	return directory.Key{}, false
}

// --- Select ---

type selectNode struct {
	input Node
	pred  calculus.Expr
}

func (n *selectNode) describe(indent int, b *strings.Builder) {
	pad(indent, b)
	fmt.Fprintf(b, "select %s\n", n.pred)
	if n.input != nil {
		n.input.describe(indent+1, b)
	}
}

func (n *selectNode) compile(ctx *execCtx, emit func() error) func() error {
	body := func() error {
		ctx.stats.PredEvals++
		v, err := calculus.Eval(ctx.s, n.pred, ctx.frame)
		if err != nil {
			return err
		}
		if calculus.Truthy(v) {
			return emit()
		}
		return nil
	}
	if n.input == nil {
		return body
	}
	return n.input.compile(ctx, body)
}

// --- Project ---

type projectNode struct {
	input  Node
	fields []calculus.TargetField
}

func (n *projectNode) describe(indent int, b *strings.Builder) {
	pad(indent, b)
	parts := make([]string, len(n.fields))
	for i, f := range n.fields {
		parts[i] = f.Label + ": " + f.Var
	}
	fmt.Fprintf(b, "project {%s}\n", strings.Join(parts, ", "))
	if n.input != nil {
		n.input.describe(indent+1, b)
	}
}

func (n *projectNode) compile(ctx *execCtx, emit func() error) func() error {
	return n.input.compile(ctx, emit)
}

// Plan is an executable algebra expression.
type Plan struct {
	root   *projectNode
	fields []calculus.TargetField
	labels []string
	vars   []string // frame slot names, outer-to-inner pipeline order
	slots  []int    // fields[i] -> frame slot, -1 when externally bound

	// scratch pools flat result-value accumulators across executions, so a
	// run's only output allocations are the exact-size tuple slice and one
	// value slab. Pooled memory never escapes: the accumulator is copied
	// into the fresh slab before the pool gets it back.
	scratch sync.Pool // *runScratch
}

type runScratch struct {
	vals []oop.OOP // row-major: nf values per result row
}

// newPlan finalizes a node tree into a plan: every scan/index-scan node is
// assigned its frame slot and the projection's fields are resolved to slots.
func newPlan(root *projectNode, fields []calculus.TargetField) *Plan {
	p := &Plan{root: root, fields: fields}
	p.scratch.New = func() any { return &runScratch{} }
	p.assignSlots(root)
	p.labels = make([]string, len(fields))
	p.slots = make([]int, len(fields))
	for i, f := range fields {
		p.labels[i] = f.Label
		p.slots[i] = -1
		for j, v := range p.vars {
			if v == f.Var {
				p.slots[i] = j // later slots win, like inner bindings
			}
		}
	}
	return p
}

func (p *Plan) assignSlots(n Node) {
	switch t := n.(type) {
	case *scanNode:
		if t.input != nil {
			p.assignSlots(t.input)
		}
		t.slot = len(p.vars)
		p.vars = append(p.vars, t.v)
	case *indexScanNode:
		if t.input != nil {
			p.assignSlots(t.input)
		}
		t.slot = len(p.vars)
		p.vars = append(p.vars, t.v)
	case *selectNode:
		if t.input != nil {
			p.assignSlots(t.input)
		}
	case *projectNode:
		if t.input != nil {
			p.assignSlots(t.input)
		}
	}
}

func (p *Plan) newFrame(initial calculus.Binding) *frame {
	f := &frame{
		vars: p.vars,
		vals: make([]oop.OOP, len(p.vars)),
		set:  make([]bool, len(p.vars)),
	}
	if len(initial) > 0 {
		f.base = initial
	}
	return f
}

// Explain renders the plan.
func (p *Plan) Explain() string { return Explain(p.root) }

// Exec runs the plan in a session, returning result tuples and statistics.
func (p *Plan) Exec(s *core.Session) ([]Tuple, Stats, error) {
	return p.ExecWith(s, calculus.Binding{})
}

// ExecWith runs the plan with an initial binding — the mechanism behind
// OPAL's embedded calculus expressions, whose "procedural parts" are the
// enclosing method's variables (§5.4).
func (p *Plan) ExecWith(s *core.Session, initial calculus.Binding) ([]Tuple, Stats, error) {
	ctx := &execCtx{s: s, stats: &Stats{}, frame: p.newFrame(initial)}
	out, err := p.run(ctx)
	return out, *ctx.stats, err
}

// run compiles the pipeline against ctx and drives it to completion. Result
// values accumulate row-major in a pooled flat scratch slab; on success they
// are copied once into an exact-size slab that backs every Tuple's Values.
// That copy is the aliasing boundary: returned tuples never share storage
// with the frame or with pooled scratch memory.
func (p *Plan) run(ctx *execCtx) ([]Tuple, error) {
	sc := p.scratch.Get().(*runScratch)
	sc.vals = sc.vals[:0]
	nf := len(p.fields)
	rows := 0
	drive := p.root.compile(ctx, func() error {
		rows++
		for i, sl := range p.slots {
			var v oop.OOP
			if sl >= 0 && ctx.frame.set[sl] {
				v = ctx.frame.vals[sl]
			} else if lv, ok := ctx.frame.LookupVar(p.fields[i].Var); ok {
				v = lv
			}
			sc.vals = append(sc.vals, v)
		}
		return nil
	})
	err := drive()
	if err != nil {
		p.scratch.Put(sc)
		return nil, err
	}
	var out []Tuple
	if rows > 0 {
		slab := make([]oop.OOP, len(sc.vals))
		copy(slab, sc.vals)
		out = make([]Tuple, rows)
		for i := range out {
			out[i] = Tuple{Labels: p.labels, Values: slab[i*nf : (i+1)*nf : (i+1)*nf]}
		}
	}
	p.scratch.Put(sc)
	return out, nil
}
