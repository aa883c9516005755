package opal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/calculus"
	"repro/internal/oop"
)

// Bytecodes of the OPAL abstract stack machine ("The Interpreter is an
// abstract stack machine that executes compiledMethods consisting of
// sequences of bytecodes", §6).
type opCode byte

const (
	opPushSelf   opCode = iota
	opPushLit           // u16 literal index
	opPushTemp          // u8 temp slot
	opStoreTemp         // u8 (value stays on stack)
	opPushIVar          // u16 literal index of name symbol
	opStoreIVar         // u16 (value stays on stack)
	opPushGlobal        // u16 literal index of name symbol
	opPop
	opDup
	opSend      // u16 selector literal, u8 argc
	opSuperSend // u16 selector literal, u8 argc
	opJump      // i16 relative to next instruction
	opJumpFalse // i16; pops condition
	opJumpTrue  // i16; pops condition
	opPushBlock // u16 literal index of block
	opRetTop    // return TOS from the current code unit
	opMethodRet // non-local return: unwind to the home method with TOS
	opFetchElem // u16 name literal; pops object, pushes element value
	opFetchAt   // u16 name literal; pops time then object, pushes value
	opStoreElem // u16 name literal; pops value then object, pushes value
	opQuery     // u16 calculus literal; pushes the result collection
)

// literal is one literal-pool entry.
type literal struct {
	kind litKind
	i    int64
	f    float64
	s    string  // string/symbol/char/selector text
	sym  oop.OOP // lkSymbol, lkSelector: s resolved on first execution
	arr  []literal
	blk  *blockCode
	calc *calcLit
}

// calcLit is a compiled embedded set-calculus expression: the parsed query
// plus the enclosing-scope variables it captures (name and temp slot).
type calcLit struct {
	src      string
	query    *calculus.Query
	capNames []string
	capSlots []int
}

type litKind uint8

const (
	lkInt litKind = iota
	lkFloat
	lkString
	lkSymbol
	lkChar
	lkTrue
	lkFalse
	lkNil
	lkArray
	lkBlock
	lkSelector // selector or name symbols (interned at run time)
	lkCalculus // embedded set-calculus expression
)

// blockCode is the compiled form of a block literal. Blocks share their
// home activation's temporary vector (the classic ST-80 scheme): block
// arguments are pre-assigned slots in the method's temp vector, so blocks
// are full closures but non-reentrant.
type blockCode struct {
	numArgs  int
	argSlots []int
	code     []byte
	method   *compiledMethod
}

// compiledMethod is an executable method.
type compiledMethod struct {
	selector string
	numArgs  int
	numTemps int // size of the temp vector (args + temps + block slots)
	code     []byte
	lits     []literal
	source   string
	ivars    []string // instance variable names visible when compiled
}

// scope tracks name→slot bindings with block shadowing.
type scope struct {
	names map[string][]int // name -> stack of slots (for shadowing)
	ivars map[string]bool
	next  int
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
	m    *compiledMethod
	sc   *scope
	code *[]byte // current emission target (method or block body)
}

// compileMethod compiles a parsed method for a class with the given
// instance variable names.
func compileMethod(ast *methodAST, source string, ivars []string) (*compiledMethod, error) {
	m := &compiledMethod{selector: ast.selector, numArgs: len(ast.params), source: source, ivars: ivars}
	sc := &scope{names: map[string][]int{}, ivars: map[string]bool{}}
	for _, iv := range ivars {
		sc.ivars[iv] = true
	}
	for _, p := range ast.params {
		sc.bind(p)
	}
	for _, t := range ast.temps {
		sc.bind(t)
	}
	c := &compiler{m: m, sc: sc, code: &m.code}
	if err := c.body(ast.body, true); err != nil {
		return nil, err
	}
	m.numTemps = sc.next
	return m, nil
}

// compileDoIt compiles an executable block of code; falling off the end
// returns the last expression's value.
func compileDoIt(ast *methodAST, source string) (*compiledMethod, error) {
	m := &compiledMethod{selector: "doIt", source: source}
	sc := &scope{names: map[string][]int{}, ivars: map[string]bool{}}
	for _, t := range ast.temps {
		sc.bind(t)
	}
	c := &compiler{m: m, sc: sc, code: &m.code}
	if err := c.body(ast.body, false); err != nil {
		return nil, err
	}
	m.numTemps = sc.next
	return m, nil
}

// body compiles method- or doIt-level statements. A ^-return returns its
// value; falling off the end returns self in a method and the last value in
// a doIt.
func (c *compiler) body(stmts []node, isMethod bool) error {
	for i, st := range stmts {
		if r, ok := st.(*returnNode); ok {
			if err := c.expr(r.value); err != nil {
				return err
			}
			c.emit(opRetTop)
			return nil
		}
		if err := c.expr(st); err != nil {
			return err
		}
		if i < len(stmts)-1 {
			c.emit(opPop)
		} else if isMethod {
			c.emit(opPop) // method falls off the end: return self
		}
	}
	if isMethod {
		c.emit(opPushSelf)
	} else if len(stmts) == 0 {
		c.pushLit(literal{kind: lkNil})
	}
	c.emit(opRetTop)
	return nil
}

func (c *compiler) emit(op opCode, operands ...byte) {
	*c.code = append(*c.code, byte(op))
	*c.code = append(*c.code, operands...)
}

func (c *compiler) emitU16(op opCode, v int) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(v))
	c.emit(op, b[0], b[1])
}

func (c *compiler) addLit(l literal) int {
	// Deduplicate simple literals.
	for i, e := range c.m.lits {
		if e.kind == l.kind && e.i == l.i && e.f == l.f && e.s == l.s &&
			e.arr == nil && l.arr == nil && e.blk == nil && l.blk == nil &&
			e.calc == nil && l.calc == nil {
			return i
		}
	}
	c.m.lits = append(c.m.lits, l)
	return len(c.m.lits) - 1
}

func (c *compiler) pushLit(l literal) {
	c.emitU16(opPushLit, c.addLit(l))
}

// jump emission with backpatching.
func (c *compiler) emitJump(op opCode) int {
	c.emit(op, 0, 0)
	return len(*c.code) - 2
}

func (c *compiler) patchJump(at int) {
	off := len(*c.code) - (at + 2)
	binary.LittleEndian.PutUint16((*c.code)[at:], uint16(int16(off)))
}

func (c *compiler) jumpBack(target int) {
	off := target - (len(*c.code) + 3)
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(int16(off)))
	c.emit(opJump, b[0], b[1])
}

func (c *compiler) expr(n node) error {
	switch e := n.(type) {
	case *literalNode:
		c.pushLit(litFromNode(e))
		return nil
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
		return fmt.Errorf("opal: ^-return not allowed here")
	}
	return fmt.Errorf("opal: cannot compile %T", n)
}

// calculusLit compiles an embedded set-calculus expression. The query is
// parsed (and so validated) at compile time; any free variable that names
// an in-scope temp is captured by slot and bound at run time — the paper's
// "procedural parts" inside declarative statements (§5.4). Remaining free
// variables resolve as globals/World roots at run time.
func (c *compiler) calculusLit(n *calculusNode) error {
	// The lexer stripped the OUTER braces; the text still contains the
	// query's own target-constructor braces: {Emp: e} where ...
	q, err := calculus.Parse(n.src)
	if err != nil {
		return fmt.Errorf("opal: embedded calculus: %w", err)
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
	cl := &calcLit{src: n.src, query: q}
	for name := range free {
		if rangeBound[name] {
			continue
		}
		if slot, ok := c.sc.lookup(name); ok {
			cl.capNames = append(cl.capNames, name)
			cl.capSlots = append(cl.capSlots, slot)
		}
	}
	c.emitU16(opQuery, c.addLit(literal{kind: lkCalculus, calc: cl}))
	return nil
}

func litFromNode(e *literalNode) literal {
	switch e.kind {
	case litInt:
		return literal{kind: lkInt, i: e.i}
	case litFloat:
		return literal{kind: lkFloat, f: e.f}
	case litString:
		return literal{kind: lkString, s: e.s}
	case litSymbol:
		return literal{kind: lkSymbol, s: e.s}
	case litChar:
		return literal{kind: lkChar, s: e.s}
	case litTrue:
		return literal{kind: lkTrue}
	case litFalse:
		return literal{kind: lkFalse}
	case litNil:
		return literal{kind: lkNil}
	case litArray:
		arr := make([]literal, len(e.arr))
		for i, el := range e.arr {
			arr[i] = litFromNode(el)
		}
		return literal{kind: lkArray, arr: arr}
	}
	panic("unreachable literal kind")
}

func (c *compiler) variable(v *varNode) error {
	switch v.name {
	case "self", "super":
		c.emit(opPushSelf)
		return nil
	case "thisContext":
		return fmt.Errorf("opal: thisContext is not supported")
	}
	if slot, ok := c.sc.lookup(v.name); ok {
		c.emit(opPushTemp, byte(slot))
		return nil
	}
	if c.sc.ivars[v.name] {
		c.emitU16(opPushIVar, c.addLit(literal{kind: lkSelector, s: v.name}))
		return nil
	}
	c.emitU16(opPushGlobal, c.addLit(literal{kind: lkSelector, s: v.name}))
	return nil
}

func (c *compiler) assign(a *assignNode) error {
	switch tgt := a.target.(type) {
	case *varNode:
		if tgt.name == "self" || tgt.name == "super" {
			return fmt.Errorf("opal: cannot assign to %s", tgt.name)
		}
		if err := c.expr(a.value); err != nil {
			return err
		}
		if slot, ok := c.sc.lookup(tgt.name); ok {
			c.emit(opStoreTemp, byte(slot))
			return nil
		}
		if c.sc.ivars[tgt.name] {
			c.emitU16(opStoreIVar, c.addLit(literal{kind: lkSelector, s: tgt.name}))
			return nil
		}
		return fmt.Errorf("opal: cannot assign to undeclared variable %q", tgt.name)
	case *pathNode:
		// Evaluate the prefix object, then value, then store the last seg.
		last := tgt.segs[len(tgt.segs)-1]
		if last.timeExp != nil {
			return fmt.Errorf("opal: cannot assign into a past state")
		}
		prefix := &pathNode{base: tgt.base, root: tgt.root, segs: tgt.segs[:len(tgt.segs)-1]}
		if len(prefix.segs) == 0 {
			if err := c.expr(prefix.root); err != nil {
				return err
			}
		} else if err := c.path(prefix); err != nil {
			return err
		}
		if err := c.expr(a.value); err != nil {
			return err
		}
		c.emitU16(opStoreElem, c.addLit(literal{kind: lkSelector, s: segKey(last)}))
		return nil
	}
	return fmt.Errorf("opal: bad assignment target %T", a.target)
}

// segKey encodes a path segment name; numeric indexes are prefixed so the
// VM can tell them from symbols.
func segKey(s pathSeg) string {
	if s.isIndex {
		return fmt.Sprintf("\x00%d", s.index)
	}
	return s.name
}

func (c *compiler) path(p *pathNode) error {
	if err := c.expr(p.root); err != nil {
		return err
	}
	for _, seg := range p.segs {
		idx := c.addLit(literal{kind: lkSelector, s: segKey(seg)})
		if seg.timeExp != nil {
			if err := c.expr(seg.timeExp); err != nil {
				return err
			}
			c.emitU16(opFetchAt, idx)
		} else {
			c.emitU16(opFetchElem, idx)
		}
	}
	return nil
}

func (c *compiler) cascade(cas *cascadeNode) error {
	if err := c.expr(cas.receiver); err != nil {
		return err
	}
	for i, snd := range cas.sends {
		last := i == len(cas.sends)-1
		if !last {
			c.emit(opDup)
		}
		for _, a := range snd.args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emitSend(opSend, snd.selector, len(snd.args))
		if !last {
			c.emit(opPop)
		}
	}
	return nil
}

func (c *compiler) emitSend(op opCode, selector string, argc int) {
	idx := c.addLit(literal{kind: lkSelector, s: selector})
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(idx))
	c.emit(op, b[0], b[1], byte(argc))
}

// send compiles a message send, inlining the standard control-flow
// selectors when their operands are block literals.
func (c *compiler) send(s *sendNode) error {
	if !s.super && c.tryInline(s) {
		return c.inline(s)
	}
	if err := c.expr(s.receiver); err != nil {
		return err
	}
	for _, a := range s.args {
		if err := c.expr(a); err != nil {
			return err
		}
	}
	op := opSend
	if s.super {
		op = opSuperSend
	}
	c.emitSend(op, s.selector, len(s.args))
	return nil
}

func isBlockLit(n node) (*blockNode, bool) {
	b, ok := n.(*blockNode)
	return b, ok
}

func (c *compiler) tryInline(s *sendNode) bool {
	switch s.selector {
	case "ifTrue:", "ifFalse:":
		b, ok := isBlockLit(s.args[0])
		return ok && len(b.params) == 0
	case "ifTrue:ifFalse:", "ifFalse:ifTrue:":
		b1, ok1 := isBlockLit(s.args[0])
		b2, ok2 := isBlockLit(s.args[1])
		return ok1 && ok2 && len(b1.params) == 0 && len(b2.params) == 0
	case "and:", "or:":
		b, ok := isBlockLit(s.args[0])
		return ok && len(b.params) == 0
	case "whileTrue:", "whileFalse:":
		r, okr := isBlockLit(s.receiver)
		b, okb := isBlockLit(s.args[0])
		return okr && okb && len(r.params) == 0 && len(b.params) == 0
	case "whileTrue", "whileFalse":
		r, ok := isBlockLit(s.receiver)
		return ok && len(r.params) == 0
	case "to:do:":
		b, ok := isBlockLit(s.args[1])
		return ok && len(b.params) == 1
	case "timesRepeat:":
		b, ok := isBlockLit(s.args[0])
		return ok && len(b.params) == 0
	}
	return false
}

// inlineBlockBody compiles a block's statements in the current scope
// (sharing temps), leaving the block value on the stack.
func (c *compiler) inlineBlockBody(b *blockNode) error {
	for _, t := range b.temps {
		c.sc.bind(t)
	}
	defer func() {
		for _, t := range b.temps {
			c.sc.unbind(t)
		}
	}()
	if len(b.body) == 0 {
		c.pushLit(literal{kind: lkNil})
		return nil
	}
	for i, st := range b.body {
		if r, ok := st.(*returnNode); ok {
			if err := c.expr(r.value); err != nil {
				return err
			}
			c.emit(opMethodRet)
			return nil
		}
		if err := c.expr(st); err != nil {
			return err
		}
		if i < len(b.body)-1 {
			c.emit(opPop)
		}
	}
	return nil
}

func (c *compiler) inline(s *sendNode) error {
	switch s.selector {
	case "ifTrue:", "ifFalse:":
		if err := c.expr(s.receiver); err != nil {
			return err
		}
		jop := opJumpFalse
		if s.selector == "ifFalse:" {
			jop = opJumpTrue
		}
		j1 := c.emitJump(jop)
		if err := c.inlineBlockBody(s.args[0].(*blockNode)); err != nil {
			return err
		}
		j2 := c.emitJump(opJump)
		c.patchJump(j1)
		c.pushLit(literal{kind: lkNil})
		c.patchJump(j2)
		return nil
	case "ifTrue:ifFalse:", "ifFalse:ifTrue:":
		if err := c.expr(s.receiver); err != nil {
			return err
		}
		jop := opJumpFalse
		if s.selector == "ifFalse:ifTrue:" {
			jop = opJumpTrue
		}
		j1 := c.emitJump(jop)
		if err := c.inlineBlockBody(s.args[0].(*blockNode)); err != nil {
			return err
		}
		j2 := c.emitJump(opJump)
		c.patchJump(j1)
		if err := c.inlineBlockBody(s.args[1].(*blockNode)); err != nil {
			return err
		}
		c.patchJump(j2)
		return nil
	case "and:", "or:":
		if err := c.expr(s.receiver); err != nil {
			return err
		}
		c.emit(opDup)
		var j int
		if s.selector == "and:" {
			j = c.emitJump(opJumpFalse)
		} else {
			j = c.emitJump(opJumpTrue)
		}
		c.emit(opPop)
		if err := c.inlineBlockBody(s.args[0].(*blockNode)); err != nil {
			return err
		}
		c.patchJump(j)
		return nil
	case "whileTrue:", "whileFalse:":
		top := len(*c.code)
		if err := c.inlineBlockBody(s.receiver.(*blockNode)); err != nil {
			return err
		}
		var j int
		if s.selector == "whileTrue:" {
			j = c.emitJump(opJumpFalse)
		} else {
			j = c.emitJump(opJumpTrue)
		}
		if err := c.inlineBlockBody(s.args[0].(*blockNode)); err != nil {
			return err
		}
		c.emit(opPop)
		c.jumpBack(top)
		c.patchJump(j)
		c.pushLit(literal{kind: lkNil})
		return nil
	case "whileTrue", "whileFalse":
		top := len(*c.code)
		if err := c.inlineBlockBody(s.receiver.(*blockNode)); err != nil {
			return err
		}
		var j int
		if s.selector == "whileTrue" {
			j = c.emitJump(opJumpFalse)
		} else {
			j = c.emitJump(opJumpTrue)
		}
		c.jumpBack(top)
		c.patchJump(j)
		c.pushLit(literal{kind: lkNil})
		return nil
	case "to:do:":
		// i := start. [i <= stop] whileTrue: [body. i := i + 1].
		blk := s.args[1].(*blockNode)
		iSlot := c.sc.bind("(to:do: index)")
		stopSlot := c.sc.bind("(to:do: limit)")
		defer c.sc.unbind("(to:do: index)")
		defer c.sc.unbind("(to:do: limit)")
		if err := c.expr(s.receiver); err != nil {
			return err
		}
		c.emit(opStoreTemp, byte(iSlot))
		c.emit(opPop)
		if err := c.expr(s.args[0]); err != nil {
			return err
		}
		c.emit(opStoreTemp, byte(stopSlot))
		c.emit(opPop)
		top := len(*c.code)
		c.emit(opPushTemp, byte(iSlot))
		c.emit(opPushTemp, byte(stopSlot))
		c.emitSend(opSend, "<=", 1)
		j := c.emitJump(opJumpFalse)
		// Bind the block argument to the index.
		argSlot := c.sc.bind(blk.params[0])
		c.emit(opPushTemp, byte(iSlot))
		c.emit(opStoreTemp, byte(argSlot))
		c.emit(opPop)
		if err := c.inlineBlockBody(blk); err != nil {
			c.sc.unbind(blk.params[0])
			return err
		}
		c.sc.unbind(blk.params[0])
		c.emit(opPop)
		c.emit(opPushTemp, byte(iSlot))
		c.pushLit(literal{kind: lkInt, i: 1})
		c.emitSend(opSend, "+", 1)
		c.emit(opStoreTemp, byte(iSlot))
		c.emit(opPop)
		c.jumpBack(top)
		c.patchJump(j)
		c.pushLit(literal{kind: lkNil})
		return nil
	case "timesRepeat:":
		blk := s.args[0].(*blockNode)
		iSlot := c.sc.bind("(times index)")
		nSlot := c.sc.bind("(times limit)")
		defer c.sc.unbind("(times index)")
		defer c.sc.unbind("(times limit)")
		c.pushLit(literal{kind: lkInt, i: 1})
		c.emit(opStoreTemp, byte(iSlot))
		c.emit(opPop)
		if err := c.expr(s.receiver); err != nil {
			return err
		}
		c.emit(opStoreTemp, byte(nSlot))
		c.emit(opPop)
		top := len(*c.code)
		c.emit(opPushTemp, byte(iSlot))
		c.emit(opPushTemp, byte(nSlot))
		c.emitSend(opSend, "<=", 1)
		j := c.emitJump(opJumpFalse)
		if err := c.inlineBlockBody(blk); err != nil {
			return err
		}
		c.emit(opPop)
		c.emit(opPushTemp, byte(iSlot))
		c.pushLit(literal{kind: lkInt, i: 1})
		c.emitSend(opSend, "+", 1)
		c.emit(opStoreTemp, byte(iSlot))
		c.emit(opPop)
		c.jumpBack(top)
		c.patchJump(j)
		c.pushLit(literal{kind: lkNil})
		return nil
	}
	return fmt.Errorf("opal: inline of %q not implemented", s.selector)
}

// blockLit compiles a block literal into a blockCode in the literal pool.
func (c *compiler) blockLit(b *blockNode) error {
	bc := &blockCode{numArgs: len(b.params), method: c.m}
	for _, p := range b.params {
		bc.argSlots = append(bc.argSlots, c.sc.bind(p))
	}
	for _, t := range b.temps {
		c.sc.bind(t)
	}
	saved := c.code
	c.code = &bc.code
	err := c.blockBody(b.body)
	c.code = saved
	for i := len(b.temps) - 1; i >= 0; i-- {
		c.sc.unbind(b.temps[i])
	}
	for i := len(b.params) - 1; i >= 0; i-- {
		c.sc.unbind(b.params[i])
	}
	if err != nil {
		return err
	}
	c.emitU16(opPushBlock, c.addLit(literal{kind: lkBlock, blk: bc}))
	return nil
}

// blockBody compiles a block's statements as a code unit ending in opRetTop
// (the block's value) or opMethodRet (a ^-return).
func (c *compiler) blockBody(stmts []node) error {
	if len(stmts) == 0 {
		c.pushLit(literal{kind: lkNil})
		c.emit(opRetTop)
		return nil
	}
	for i, st := range stmts {
		if r, ok := st.(*returnNode); ok {
			if err := c.expr(r.value); err != nil {
				return err
			}
			c.emit(opMethodRet)
			return nil
		}
		if err := c.expr(st); err != nil {
			return err
		}
		if i < len(stmts)-1 {
			c.emit(opPop)
		}
	}
	c.emit(opRetTop)
	return nil
}
