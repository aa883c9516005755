package analysis

import (
	"go/ast"
	"go/token"
)

// cfg.go builds a per-function control-flow graph over the raw AST — the
// foundation of the path-sensitive analyzers (the lock family, errflow,
// bufown, sessionlife). The graph is deliberately statement-grained: each
// Block carries the leaf statements and control expressions that execute
// in order when the block runs, and edges follow every branch, loop back
// edge, early return, explicit panic, goto, break/continue (labeled or
// not), switch fallthrough and select arm.
//
// Shape rules:
//
//   - Exit is a single synthetic block. Every return statement, explicit
//     panic(...) statement and fall-off-the-end path gets an edge to it,
//     so "all paths out of the function" is exactly "all predecessors of
//     Exit", and each predecessor's Term says which kind of exit it is.
//   - Function literals are NOT inlined: a *ast.FuncLit is its own
//     function with its own CFG. Blocks never contain the literal's inner
//     statements; analyzers walking block nodes must prune FuncLit
//     subtrees (nodeWalk does this).
//   - defer and go statements appear as ordinary nodes (the *ast.DeferStmt
//     / *ast.GoStmt wrapper is kept) at their registration/spawn point;
//     what the deferred or spawned call does is the analyzer's business.
//   - Unreachable code after a return/branch is parked in a fresh block
//     with no predecessors, so its nodes still exist but carry no flow.
//   - A switch clause reached by fallthrough re-uses the next clause's
//     body block; the (constant) case expressions at its head are treated
//     as evaluated, a harmless over-approximation.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // creation order; Blocks[i].Index == i
}

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	Nodes []ast.Node // leaf statements and control exprs, execution order
	Succs []*Block
	Preds []*Block
	// Term is why control leaves the function from this block:
	// *ast.ReturnStmt for a return, *ast.CallExpr for an explicit
	// panic(...), nil otherwise (including the implicit fall-off-the-end
	// edge into Exit).
	Term ast.Node
}

// ExitPreds returns the blocks from which the function exits, in index
// order — one per return/panic/fall-off path.
func (c *CFG) ExitPreds() []*Block {
	out := make([]*Block, len(c.Exit.Preds))
	copy(out, c.Exit.Preds)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Index > out[j].Index; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// CFGOf returns the control-flow graph of f's body, built on first use
// and cached for every analyzer in the run.
func (p *Program) CFGOf(f *Func) *CFG {
	if c, ok := p.cfgs[f]; ok {
		return c
	}
	c := buildCFG(f.Body)
	p.cfgs[f] = c
	return c
}

// branchTarget is one open break/continue scope.
type branchTarget struct {
	label string
	blk   *Block
}

type cfgBuilder struct {
	cfg          *CFG
	cur          *Block // nil after a terminator: following code is unreachable
	breaks       []branchTarget
	continues    []branchTarget
	falls        []*Block          // fallthrough targets, innermost last
	labels       map[string]*Block // goto / labeled-statement entry blocks
	pendingLabel string            // set by LabeledStmt for the next loop/switch
}

func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// The implicit fall-off-the-end edge — but only if the end is
	// reachable: after `for {}` or a select whose every arm returns, the
	// dangling after-block has no predecessors and is no way out.
	if b.cur != nil && (b.cur == b.cfg.Entry || len(b.cur.Preds) > 0) {
		b.edge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, reviving an unreachable block
// for dead code so every statement lives somewhere.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the label a LabeledStmt attached to the construct
// being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// exit terminates the current block into Exit with the given terminator.
func (b *cfgBuilder) exit(term ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Term = term
	b.edge(b.cur, b.cfg.Exit)
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// panicCall recognizes an explicit panic(...) expression statement.
func panicCall(x ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return call
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code keeps its own block
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.exit(s)
	case *ast.ExprStmt:
		if call := panicCall(s.X); call != nil {
			b.add(s)
			b.exit(call)
			return
		}
		b.add(s)
	default:
		// Assignments, declarations, defer/go, sends, inc/dec, empty.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	elseEnd := cond // no else: the false edge falls through
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}
	if thenEnd == nil && elseEnd == nil {
		b.cur = nil
		return
	}
	join := b.newBlock()
	if thenEnd != nil {
		b.edge(thenEnd, join)
	}
	if elseEnd != nil {
		b.edge(elseEnd, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	after := b.newBlock()
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(head, after) // condition-false exit; `for {}` has none
	}
	post := head // continue target when there is no post statement
	if s.Post != nil {
		post = b.newBlock()
	}
	body := b.newBlock()
	b.edge(head, body)
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, post})
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if b.cur != nil {
		b.edge(b.cur, post)
	}
	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(post, head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	// The range expression and the per-iteration key/value assignment
	// both live in the head; the RangeStmt wrapper itself is not a node
	// (its Body would leak into the block).
	b.add(s.X)
	after := b.newBlock()
	b.edge(head, after)
	body := b.newBlock()
	b.edge(head, body)
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = after
}

// switchStmt covers expression switches (tag != nil, possibly nil tag for
// `switch { ... }`) and type switches (assign != nil).
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	entry := b.cur
	after := b.newBlock()

	var clauses []*ast.CaseClause
	for _, s := range body.List {
		clauses = append(clauses, s.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock()
		b.edge(entry, bodies[i])
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(entry, after)
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	for i, c := range clauses {
		b.cur = bodies[i]
		for _, e := range c.List {
			b.add(e)
		}
		var fall *Block
		if i+1 < len(bodies) {
			fall = bodies[i+1]
		}
		b.falls = append(b.falls, fall)
		b.stmtList(c.Body)
		b.falls = b.falls[:len(b.falls)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	entry := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, after})
	for _, cs := range s.Body.List {
		c := cs.(*ast.CommClause)
		arm := b.newBlock()
		b.edge(entry, arm)
		b.cur = arm
		if c.Comm != nil {
			b.stmt(c.Comm)
		}
		b.stmtList(c.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	// A select with no runnable arm blocks forever; `after` is reachable
	// only through an arm, which is exactly the semantics.
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	lb := b.labels[s.Label.Name]
	if lb == nil {
		lb = b.newBlock()
		b.labels[s.Label.Name] = lb
	}
	if b.cur != nil {
		b.edge(b.cur, lb)
	}
	b.cur = lb
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	find := func(stack []branchTarget) *Block {
		for i := len(stack) - 1; i >= 0; i-- {
			if label == "" || stack[i].label == label {
				return stack[i].blk
			}
		}
		return nil
	}
	switch s.Tok {
	case token.BREAK:
		if t := find(b.breaks); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := find(b.continues); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.GOTO:
		lb := b.labels[label]
		if lb == nil {
			lb = b.newBlock() // forward goto: target filled in when reached
			b.labels[label] = lb
		}
		b.edge(b.cur, lb)
		b.cur = nil
	case token.FALLTHROUGH:
		if len(b.falls) > 0 && b.falls[len(b.falls)-1] != nil {
			b.edge(b.cur, b.falls[len(b.falls)-1])
		}
		b.cur = nil
	}
}

// nodeWalk visits n and its children in source order, pruning function
// literal bodies (they are their own functions with their own CFGs), and
// calls fn on every node it keeps. It is the traversal every CFG-based
// analyzer uses to read a block's nodes.
func nodeWalk(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			fn(c)        // the literal itself is visible (creation point) ...
			return false // ... its body is not
		}
		return fn(c)
	})
}
