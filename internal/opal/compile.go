package opal

import (
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/oop"
)

// The compiler lowers each AST node once into a Go closure over an
// activation frame. Values flow through Go returns, so there is no operand
// stack, and the inlined control-flow sends become Go if and for. It stands
// in for the paper's bytecodes and abstract stack machine (§6).

// code is a compiled expression or statement sequence: run in an
// activation, it answers its value.
type code func(fr *frame) (oop.OOP, error)

// blockCode is the compiled form of a block literal. Blocks share their
// home activation's temporary vector (the classic ST-80 scheme): block
// arguments are pre-assigned slots in the method's temp vector, so blocks
// are full closures but non-reentrant.
type blockCode struct {
	numArgs  int
	argSlots []int
	body     code
}

// compiledMethod is an executable method or doIt.
type compiledMethod struct {
	numTemps int // size of the temp vector (args + temps + block slots)
	body     code
}

// symCell caches the OOP of a selector, symbol, instance-variable or
// path-segment name, resolved on first execution so that running the same
// code again interns nothing. Compiled code, and so every cell, belongs to
// one interpreter, never to another session's.
type symCell struct {
	name string
	sym  oop.OOP
}

func (c *symCell) get(in *Interp) oop.OOP {
	if c.sym == oop.Invalid {
		c.sym = in.s.Symbol(c.name)
	}
	return c.sym
}

var errIntRange = errors.New("opal: integer literal out of range")

// scope tracks name→slot bindings with block shadowing.
type scope struct {
	names map[string][]int // name -> stack of slots (for shadowing)
	ivars map[string]bool
	next  int
}

func newScope(ivars []string) *scope {
	sc := &scope{names: map[string][]int{}, ivars: map[string]bool{}}
	for _, iv := range ivars {
		sc.ivars[iv] = true
	}
	return sc
}

func (sc *scope) bind(name string) int {
	slot := sc.next
	sc.next++
	sc.names[name] = append(sc.names[name], slot)
	return slot
}

func (sc *scope) unbind(name string) {
	st := sc.names[name]
	sc.names[name] = st[:len(st)-1]
}

func (sc *scope) lookup(name string) (int, bool) {
	st := sc.names[name]
	if len(st) == 0 {
		return 0, false
	}
	return st[len(st)-1], true
}

type compiler struct {
	sc      *scope
	inBlock bool // compiling a real block's body: ^ unwinds to the home method
}

// compileMethod compiles a parsed method for a class with the given
// instance variable names.
func compileMethod(ast *methodAST, ivars []string) (*compiledMethod, error) {
	sc := newScope(ivars)
	for _, p := range ast.params {
		sc.bind(p)
	}
	return compileBody(sc, ast, true)
}

// compileDoIt compiles an executable block of code; falling off the end
// returns the last expression's value.
func compileDoIt(ast *methodAST) (*compiledMethod, error) {
	return compileBody(newScope(nil), ast, false)
}

// compileBody compiles method- or doIt-level statements. A ^-return answers
// its value; falling off the end answers self in a method and the last value
// in a doIt.
func compileBody(sc *scope, ast *methodAST, isMethod bool) (*compiledMethod, error) {
	for _, t := range ast.temps {
		sc.bind(t)
	}
	c := &compiler{sc: sc}
	body, returns, err := c.stmts(ast.body, func(v code) code { return v })
	if err != nil {
		return nil, err
	}
	if isMethod && !returns {
		body = sequence([]code{body, func(fr *frame) (oop.OOP, error) { return fr.self, nil }})
	}
	return &compiledMethod{numTemps: sc.next, body: body}, nil
}

// stmts compiles a statement sequence whose value is the last statement's,
// or nil when it is empty. A ^-statement ends the sequence, and ret compiles
// it; what follows is never compiled. The bool reports whether one did.
func (c *compiler) stmts(body []node, ret func(code) code) (code, bool, error) {
	codes := make([]code, 0, len(body))
	for _, st := range body {
		r, isRet := st.(*returnNode)
		if isRet {
			st = r.value
		}
		cd, err := c.expr(st)
		if err != nil {
			return nil, false, err
		}
		if isRet {
			return sequence(append(codes, ret(cd))), true, nil
		}
		codes = append(codes, cd)
	}
	return sequence(codes), false, nil
}

func sequence(codes []code) code {
	switch len(codes) {
	case 0:
		return constant(oop.Nil)
	case 1:
		return codes[0]
	}
	return func(fr *frame) (v oop.OOP, err error) {
		for _, cd := range codes {
			if v, err = cd(fr); err != nil {
				return oop.Invalid, err
			}
		}
		return v, nil
	}
}

func constant(v oop.OOP) code {
	return func(*frame) (oop.OOP, error) { return v, nil }
}

// methodReturn compiles a ^ inside a block: it returns from the block's home
// method. A block inlined into the method's own body returns through
// errReturn. A real block may be running under a primitive such as do:, so
// its ^ unwinds by panic to the home's run, or fails if that run has
// already returned (Smalltalk-80's cannotReturn:).
func (c *compiler) methodReturn(val code) code {
	if !c.inBlock {
		return func(fr *frame) (oop.OOP, error) {
			v, err := val(fr)
			if err != nil {
				return oop.Invalid, err
			}
			fr.ret = v
			return oop.Invalid, errReturn
		}
	}
	return func(fr *frame) (oop.OOP, error) {
		v, err := val(fr)
		if err != nil {
			return oop.Invalid, err
		}
		if fr.returned {
			return oop.Invalid, errCannotReturn
		}
		panic(nonLocal{home: fr, val: v})
	}
}

func (c *compiler) expr(n node) (code, error) {
	switch e := n.(type) {
	case *literalNode:
		return literal(e), nil
	case *varNode:
		return c.variable(e)
	case *assignNode:
		return c.assign(e)
	case *sendNode:
		return c.send(e)
	case *cascadeNode:
		return c.cascade(e)
	case *blockNode:
		return c.blockLit(e)
	case *pathNode:
		return c.path(e)
	case *calculusNode:
		return c.calculusLit(e)
	case *returnNode:
		return nil, fmt.Errorf("opal: ^-return not allowed here")
	}
	return nil, fmt.Errorf("opal: cannot compile %T", n)
}

func (c *compiler) exprs(ns []node) ([]code, error) {
	codes := make([]code, len(ns))
	for i, n := range ns {
		cd, err := c.expr(n)
		if err != nil {
			return nil, err
		}
		codes[i] = cd
	}
	return codes, nil
}

// literal compiles a literal. Strings, floats and arrays are fresh objects on
// every evaluation; an integer outside the SmallInteger range fails when it
// is evaluated, not when it is compiled.
func literal(e *literalNode) code {
	switch e.kind {
	case litInt:
		if v, ok := oop.FromInt(e.i); ok {
			return constant(v)
		}
		return func(*frame) (oop.OOP, error) { return oop.Invalid, errIntRange }
	case litFloat:
		return func(fr *frame) (oop.OOP, error) { return fr.interp.s.NewFloat(e.f) }
	case litString:
		return func(fr *frame) (oop.OOP, error) { return fr.interp.s.NewString(e.s) }
	case litSymbol:
		sym := &symCell{name: e.s}
		return func(fr *frame) (oop.OOP, error) { return sym.get(fr.interp), nil }
	case litChar:
		return constant(oop.FromChar([]rune(e.s)[0]))
	case litTrue:
		return constant(oop.True)
	case litFalse:
		return constant(oop.False)
	case litNil:
		return constant(oop.Nil)
	case litArray:
		elems := make([]code, len(e.arr))
		for i, el := range e.arr {
			elems[i] = literal(el)
		}
		return func(fr *frame) (oop.OOP, error) {
			s := fr.interp.s
			arr, err := s.NewObject(s.DB().Kernel().Array)
			if err != nil {
				return oop.Invalid, err
			}
			for i, el := range elems {
				v, err := el(fr)
				if err != nil {
					return oop.Invalid, err
				}
				if err := s.Store(arr, oop.MustInt(int64(i+1)), v); err != nil {
					return oop.Invalid, err
				}
			}
			return arr, nil
		}
	}
	panic("unreachable literal kind")
}

func (c *compiler) variable(v *varNode) (code, error) {
	switch v.name {
	case "self", "super":
		return func(fr *frame) (oop.OOP, error) { return fr.self, nil }, nil
	case "thisContext":
		return nil, fmt.Errorf("opal: thisContext is not supported")
	}
	if slot, ok := c.sc.lookup(v.name); ok {
		return func(fr *frame) (oop.OOP, error) { return fr.temps[slot], nil }, nil
	}
	if c.sc.ivars[v.name] {
		iv := &symCell{name: v.name}
		return func(fr *frame) (oop.OOP, error) {
			val, _, err := fr.interp.s.Fetch(fr.self, iv.get(fr.interp))
			return val, err
		}, nil
	}
	name := v.name
	return func(fr *frame) (oop.OOP, error) {
		if val, ok := fr.interp.s.Global(name); ok {
			return val, nil
		}
		return oop.Invalid, fmt.Errorf("opal: undefined name %q", name)
	}, nil
}

func (c *compiler) assign(a *assignNode) (code, error) {
	val, err := c.expr(a.value)
	if err != nil {
		return nil, err
	}
	return c.assignTo(a.target, val)
}

// assignTo compiles a store of val's value into target, a variable or a
// path. A store into an element is checked against its constraint.
func (c *compiler) assignTo(target node, val code) (code, error) {
	switch tgt := target.(type) {
	case *varNode:
		if tgt.name == "self" || tgt.name == "super" {
			return nil, fmt.Errorf("opal: cannot assign to %s", tgt.name)
		}
		if slot, ok := c.sc.lookup(tgt.name); ok {
			return func(fr *frame) (oop.OOP, error) {
				v, err := val(fr)
				if err != nil {
					return oop.Invalid, err
				}
				fr.temps[slot] = v
				return v, nil
			}, nil
		}
		if c.sc.ivars[tgt.name] {
			iv := &symCell{name: tgt.name}
			return func(fr *frame) (oop.OOP, error) {
				v, err := val(fr)
				if err != nil {
					return oop.Invalid, err
				}
				return v, fr.interp.storeElem(fr.self, iv.get(fr.interp), v)
			}, nil
		}
		return nil, fmt.Errorf("opal: cannot assign to undeclared variable %q", tgt.name)
	case *pathNode:
		// Evaluate the prefix object, then the value, then store the last seg.
		last := tgt.segs[len(tgt.segs)-1]
		if last.timeExp != nil {
			return nil, fmt.Errorf("opal: cannot assign into a past state")
		}
		obj, err := c.path(&pathNode{base: tgt.base, root: tgt.root, segs: tgt.segs[:len(tgt.segs)-1]})
		if err != nil {
			return nil, err
		}
		key, err := segCell(last)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) (oop.OOP, error) {
			o, err := obj(fr)
			if err != nil {
				return oop.Invalid, err
			}
			v, err := val(fr)
			if err != nil {
				return oop.Invalid, err
			}
			in := fr.interp
			if !o.IsHeap() {
				return oop.Invalid, fmt.Errorf("opal: cannot store element into %s", in.safePrint(o))
			}
			return v, in.storeElem(o, key.get(in), v)
		}, nil
	}
	return nil, fmt.Errorf("opal: bad assignment target %T", target)
}

// segCell compiles a path segment's element name. An index is resolved
// here; its cell keeps a name only for error messages.
func segCell(s pathSeg) (*symCell, error) {
	if !s.isIndex {
		return &symCell{name: s.name}, nil
	}
	v, ok := oop.FromInt(s.index)
	if !ok {
		return nil, errIntRange
	}
	return &symCell{name: fmt.Sprintf("\x00%d", s.index), sym: v}, nil
}

func (c *compiler) path(p *pathNode) (code, error) {
	cd, err := c.expr(p.root)
	if err != nil {
		return nil, err
	}
	for _, seg := range p.segs {
		obj := cd
		key, err := segCell(seg)
		if err != nil {
			return nil, err
		}
		if seg.timeExp == nil {
			cd = func(fr *frame) (oop.OOP, error) {
				o, err := obj(fr)
				if err != nil {
					return oop.Invalid, err
				}
				return fr.interp.fetchElem(o, key, nil)
			}
			continue
		}
		at, err := c.expr(seg.timeExp)
		if err != nil {
			return nil, err
		}
		cd = func(fr *frame) (oop.OOP, error) {
			o, err := obj(fr)
			if err != nil {
				return oop.Invalid, err
			}
			t, err := at(fr)
			if err != nil {
				return oop.Invalid, err
			}
			return fr.interp.fetchElem(o, key, &t)
		}
	}
	return cd, nil
}

// calculusLit compiles an embedded set-calculus expression. The query is
// parsed (and so validated) at compile time; any free variable that names
// an in-scope temp is captured by slot and bound at run time — the paper's
// "procedural parts" inside declarative statements (§5.4). Remaining free
// variables resolve as globals/World roots at run time.
func (c *compiler) calculusLit(n *calculusNode) (code, error) {
	// The lexer stripped the OUTER braces; the text still contains the
	// query's own target-constructor braces: {Emp: e} where ...
	q, err := calculus.Parse(n.src)
	if err != nil {
		return nil, fmt.Errorf("opal: embedded calculus: %w", err)
	}
	free := map[string]bool{}
	for _, r := range q.Ranges {
		r.Source.FreeVars(free)
	}
	if q.Pred != nil {
		q.Pred.FreeVars(free)
	}
	rangeBound := map[string]bool{}
	for _, r := range q.Ranges {
		rangeBound[r.Var] = true
	}
	var capNames []string
	var capSlots []int
	for name := range free {
		if rangeBound[name] {
			continue
		}
		if slot, ok := c.sc.lookup(name); ok {
			capNames = append(capNames, name)
			capSlots = append(capSlots, slot)
		}
	}
	return func(fr *frame) (oop.OOP, error) {
		in := fr.interp
		binding := calculus.Binding{}
		prebound := map[string]bool{}
		for i, name := range capNames {
			binding[name] = fr.temps[capSlots[i]]
			prebound[name] = true
		}
		plan, err := algebra.OptimizeWithBound(q, in.s, prebound)
		if err != nil {
			return oop.Invalid, err
		}
		rows, _, err := plan.ExecWith(in.s, binding)
		if err != nil {
			return oop.Invalid, err
		}
		return in.rowsToCollection(rows)
	}, nil
}

func (c *compiler) cascade(cas *cascadeNode) (code, error) {
	recv, err := c.expr(cas.receiver)
	if err != nil {
		return nil, err
	}
	sels := make([]*symCell, len(cas.sends))
	args := make([][]code, len(cas.sends))
	for i, snd := range cas.sends {
		sels[i] = &symCell{name: snd.selector}
		if args[i], err = c.exprs(snd.args); err != nil {
			return nil, err
		}
	}
	return func(fr *frame) (oop.OOP, error) {
		r, err := recv(fr)
		if err != nil {
			return oop.Invalid, err
		}
		var v oop.OOP
		for i, sel := range sels {
			argv, err := evalArgs(fr, args[i])
			if err != nil {
				return oop.Invalid, err
			}
			if v, err = fr.interp.send(r, sel, argv); err != nil {
				return oop.Invalid, err
			}
		}
		return v, nil
	}, nil
}

// send compiles a message send, inlining the standard control-flow
// selectors when their operands are block literals.
func (c *compiler) send(s *sendNode) (code, error) {
	if !s.super && inlinable(s) {
		return c.inline(s)
	}
	recv, err := c.expr(s.receiver)
	if err != nil {
		return nil, err
	}
	args, err := c.exprs(s.args)
	if err != nil {
		return nil, err
	}
	sel, super := &symCell{name: s.selector}, s.super
	return func(fr *frame) (oop.OOP, error) {
		r, err := recv(fr)
		if err != nil {
			return oop.Invalid, err
		}
		argv, err := evalArgs(fr, args)
		if err != nil {
			return oop.Invalid, err
		}
		in := fr.interp
		if !super {
			return in.send(r, sel, argv)
		}
		sup, _, err := in.s.Fetch(fr.selfCls, in.wk.Superclass)
		if err != nil {
			return oop.Invalid, err
		}
		return in.sendToClass(r, sup, sel.name, sel.get(in), argv)
	}, nil
}

// evalArgs evaluates argument expressions left to right into a fresh vector.
func evalArgs(fr *frame, args []code) ([]oop.OOP, error) {
	argv := make([]oop.OOP, len(args))
	for i, a := range args {
		v, err := a(fr)
		if err != nil {
			return nil, err
		}
		argv[i] = v
	}
	return argv, nil
}

func isBlockLit(n node, params int) bool {
	b, ok := n.(*blockNode)
	return ok && len(b.params) == params
}

func inlinable(s *sendNode) bool {
	switch s.selector {
	case "ifTrue:", "ifFalse:", "and:", "or:", "timesRepeat:":
		return isBlockLit(s.args[0], 0)
	case "ifTrue:ifFalse:", "ifFalse:ifTrue:":
		return isBlockLit(s.args[0], 0) && isBlockLit(s.args[1], 0)
	case "whileTrue:", "whileFalse:":
		return isBlockLit(s.receiver, 0) && isBlockLit(s.args[0], 0)
	case "whileTrue", "whileFalse":
		return isBlockLit(s.receiver, 0)
	case "to:do:":
		return isBlockLit(s.args[1], 1)
	}
	return false
}

// inlineBlock compiles a literal block's statements in the current scope
// (sharing temps), to run in place of sending it value.
func (c *compiler) inlineBlock(n node) (code, error) {
	b := n.(*blockNode)
	for _, t := range b.temps {
		c.sc.bind(t)
	}
	defer func() {
		for _, t := range b.temps {
			c.sc.unbind(t)
		}
	}()
	cd, _, err := c.stmts(b.body, c.methodReturn)
	return cd, err
}

// truth answers whether a condition's value is true, passing its error on;
// a non-Boolean is an error.
func (in *Interp) truth(v oop.OOP, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	b, ok := v.Bool()
	if !ok {
		return false, fmt.Errorf("opal: conditional on non-Boolean %s", in.safePrint(v))
	}
	return b, nil
}

func (c *compiler) inline(s *sendNode) (code, error) {
	switch sel := s.selector; sel {
	case "ifTrue:", "ifFalse:", "ifTrue:ifFalse:", "ifFalse:ifTrue:":
		cond, err := c.expr(s.receiver)
		if err != nil {
			return nil, err
		}
		then, err := c.inlineBlock(s.args[0])
		if err != nil {
			return nil, err
		}
		els := constant(oop.Nil)
		if len(s.args) == 2 {
			if els, err = c.inlineBlock(s.args[1]); err != nil {
				return nil, err
			}
		}
		if sel == "ifFalse:" || sel == "ifFalse:ifTrue:" {
			then, els = els, then
		}
		return func(fr *frame) (oop.OOP, error) {
			b, err := fr.interp.truth(cond(fr))
			if err != nil {
				return oop.Invalid, err
			}
			if b {
				return then(fr)
			}
			return els(fr)
		}, nil
	case "and:", "or:":
		cond, err := c.expr(s.receiver)
		if err != nil {
			return nil, err
		}
		rest, err := c.inlineBlock(s.args[0])
		if err != nil {
			return nil, err
		}
		and := sel == "and:"
		return func(fr *frame) (oop.OOP, error) {
			b, err := fr.interp.truth(cond(fr))
			if err != nil {
				return oop.Invalid, err
			}
			if b != and {
				return oop.FromBool(b), nil
			}
			return rest(fr)
		}, nil
	case "whileTrue:", "whileFalse:", "whileTrue", "whileFalse":
		cond, err := c.inlineBlock(s.receiver)
		if err != nil {
			return nil, err
		}
		body := constant(oop.Nil)
		if len(s.args) == 1 {
			if body, err = c.inlineBlock(s.args[0]); err != nil {
				return nil, err
			}
		}
		want := sel == "whileTrue:" || sel == "whileTrue"
		return func(fr *frame) (oop.OOP, error) {
			for {
				if err := fr.interp.poll(); err != nil {
					return oop.Invalid, err
				}
				b, err := fr.interp.truth(cond(fr))
				if err != nil {
					return oop.Invalid, err
				}
				if b != want {
					return oop.Nil, nil
				}
				if _, err := body(fr); err != nil {
					return oop.Invalid, err
				}
			}
		}, nil
	case "to:do:":
		// i := start. [i <= stop] whileTrue: [arg := i. body. i := i + 1].
		start, err := c.expr(s.receiver)
		if err != nil {
			return nil, err
		}
		stop, err := c.expr(s.args[0])
		if err != nil {
			return nil, err
		}
		blk := s.args[1].(*blockNode)
		argSlot := c.sc.bind(blk.params[0])
		body, err := c.inlineBlock(blk)
		c.sc.unbind(blk.params[0])
		if err != nil {
			return nil, err
		}
		return countedLoop(start, stop, argSlot, body), nil
	case "timesRepeat:":
		stop, err := c.expr(s.receiver)
		if err != nil {
			return nil, err
		}
		body, err := c.inlineBlock(s.args[0])
		if err != nil {
			return nil, err
		}
		return countedLoop(constant(oop.MustInt(1)), stop, -1, body), nil
	}
	return nil, fmt.Errorf("opal: inline of %q not implemented", s.selector)
}

// countedLoop runs body while index <= stop, stepping index by 1. Both are
// real sends, so any receiver that understands them loops. A non-negative
// argSlot receives the index before each pass.
func countedLoop(start, stop code, argSlot int, body code) code {
	le, plus, one := &symCell{name: "<="}, &symCell{name: "+"}, oop.MustInt(1)
	return func(fr *frame) (oop.OOP, error) {
		in := fr.interp
		i, err := start(fr)
		if err != nil {
			return oop.Invalid, err
		}
		limit, err := stop(fr)
		if err != nil {
			return oop.Invalid, err
		}
		for {
			if err := in.poll(); err != nil {
				return oop.Invalid, err
			}
			b, err := in.truth(in.send(i, le, []oop.OOP{limit}))
			if err != nil {
				return oop.Invalid, err
			}
			if !b {
				return oop.Nil, nil
			}
			if argSlot >= 0 {
				fr.temps[argSlot] = i
			}
			if _, err := body(fr); err != nil {
				return oop.Invalid, err
			}
			if i, err = in.send(i, plus, []oop.OOP{one}); err != nil {
				return oop.Invalid, err
			}
		}
	}
}

// blockLit compiles a block literal; evaluating it makes a closure over the
// current activation.
func (c *compiler) blockLit(b *blockNode) (code, error) {
	bc := &blockCode{numArgs: len(b.params)}
	for _, p := range b.params {
		bc.argSlots = append(bc.argSlots, c.sc.bind(p))
	}
	for _, t := range b.temps {
		c.sc.bind(t)
	}
	inBlock := c.inBlock
	c.inBlock = true
	body, _, err := c.stmts(b.body, c.methodReturn)
	c.inBlock = inBlock
	for i := len(b.temps) - 1; i >= 0; i-- {
		c.sc.unbind(b.temps[i])
	}
	for i := len(b.params) - 1; i >= 0; i-- {
		c.sc.unbind(b.params[i])
	}
	if err != nil {
		return nil, err
	}
	bc.body = body
	return func(fr *frame) (oop.OOP, error) {
		return fr.interp.registerBlock(&closure{code: bc, home: fr}), nil
	}, nil
}
