package opal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/oop"
)

// transientBase is the first pseudo-serial used for VM-transient values
// (blocks). These never reach the store.
const transientBase = uint64(1) << 48

// closure is a runtime block: compiled code plus its home activation.
type closure struct {
	code *blockCode
	home *frame
}

// frame is one activation record.
type frame struct {
	interp  *Interp
	method  *compiledMethod
	self    oop.OOP
	selfCls oop.OOP // class the running method was found in (for super)
	temps   []oop.OOP
	stack   []oop.OOP
	isBlock bool
	home    *frame // the method activation blocks unwind to
}

// nonLocal is the panic payload for ^-returns out of blocks.
type nonLocal struct {
	home *frame
	val  oop.OOP
}

// Interp executes OPAL code against a database session. One Interp per
// session (the paper's per-user Compiler + Interpreter pair, §6).
type Interp struct {
	s   *core.Session
	out strings.Builder // Transcript output

	prims     map[primKey]primFn
	cache     map[cacheKey]*cacheEntry
	wk        core.ClassSymbols
	blocks    map[uint64]*closure // the current request's closures
	nextTrans uint64              // never reused, so a stale block OOP resolves to nothing
	callDepth int
	maxDepth  int
	steps     uint64 // bytecodes executed; amortizes cancellation polling
}

// cancelEvery is how many bytecodes run between request-context polls:
// often enough that a deadline interrupts a runaway loop within
// microseconds, rarely enough that the check never shows in a profile.
// Power of two so the modulus is a mask.
const cancelEvery = 1024

type primKey struct {
	class    oop.OOP
	selector string
}

type cacheKey struct {
	class    uint64
	selector string
}

type cacheEntry struct {
	srcOOP   oop.OOP // identity of the source string the compile came from
	foundIn  oop.OOP // class whose dictionary supplied the method
	compiled *compiledMethod
}

// NewInterp creates an interpreter bound to a session. It installs the
// kernel primitives and (once per database) the kernel method sources.
func NewInterp(s *core.Session) (*Interp, error) {
	in := &Interp{
		s:         s,
		prims:     make(map[primKey]primFn),
		cache:     make(map[cacheKey]*cacheEntry),
		wk:        s.DB().ClassSymbols(),
		blocks:    make(map[uint64]*closure),
		nextTrans: transientBase,
		maxDepth:  2000,
	}
	if err := in.installKernelMethods(); err != nil {
		return nil, err
	}
	in.installPrimitives()
	return in, nil
}

// Session returns the bound session.
func (in *Interp) Session() *core.Session { return in.s }

// TakeOutput drains the Transcript buffer.
func (in *Interp) TakeOutput() string {
	s := in.out.String()
	in.out.Reset()
	return s
}

// Execute compiles and runs a block of OPAL source, returning the result.
func (in *Interp) Execute(source string) (oop.OOP, error) {
	// A request's blocks die with it: drop the previous request's closures,
	// and the frames they pin, before this one registers its own. They stay
	// until now so the previous result can still be printed.
	if len(in.blocks) > 0 {
		in.blocks = make(map[uint64]*closure)
	}
	ast, err := parseDoIt(source)
	if err != nil {
		return oop.Invalid, err
	}
	m, err := compileDoIt(ast, source)
	if err != nil {
		return oop.Invalid, err
	}
	return in.run(m, oop.Nil, in.s.DB().Kernel().UndefinedObject, nil)
}

// ExecuteToString runs source and returns the result's printString.
func (in *Interp) ExecuteToString(source string) (string, error) {
	v, err := in.Execute(source)
	if err != nil {
		return "", err
	}
	return in.PrintString(v)
}

// run executes a compiled method body.
func (in *Interp) run(m *compiledMethod, self, selfCls oop.OOP, args []oop.OOP) (res oop.OOP, err error) {
	if in.callDepth >= in.maxDepth {
		return oop.Invalid, fmt.Errorf("opal: call stack depth exceeded (%d)", in.maxDepth)
	}
	in.callDepth++
	defer func() { in.callDepth-- }()
	fr := &frame{interp: in, method: m, self: self, selfCls: selfCls, temps: make([]oop.OOP, m.numTemps)}
	fr.home = fr
	for i := range fr.temps {
		fr.temps[i] = oop.Nil
	}
	copy(fr.temps, args)
	defer func() {
		if r := recover(); r != nil {
			if nl, ok := r.(nonLocal); ok && nl.home == fr {
				res, err = nl.val, nil
				return
			}
			panic(r)
		}
	}()
	return in.exec(fr, m.code, m.lits, false)
}

// callBlock invokes a closure with arguments.
func (in *Interp) callBlock(cl *closure, args []oop.OOP) (oop.OOP, error) {
	if len(args) != cl.code.numArgs {
		return oop.Invalid, fmt.Errorf("opal: block expects %d arguments, got %d", cl.code.numArgs, len(args))
	}
	if in.callDepth >= in.maxDepth {
		return oop.Invalid, fmt.Errorf("opal: call stack depth exceeded (%d)", in.maxDepth)
	}
	in.callDepth++
	defer func() { in.callDepth-- }()
	for i, slot := range cl.code.argSlots {
		cl.home.temps[slot] = args[i]
	}
	fr := &frame{interp: in, method: cl.code.method, self: cl.home.self, selfCls: cl.home.selfCls,
		temps: cl.home.temps, isBlock: true, home: cl.home}
	return in.exec(fr, cl.code.code, cl.code.method.lits, true)
}

// exec is the bytecode loop for one code unit.
func (in *Interp) exec(fr *frame, code []byte, lits []literal, isBlock bool) (oop.OOP, error) {
	push := func(v oop.OOP) { fr.stack = append(fr.stack, v) }
	pop := func() oop.OOP {
		v := fr.stack[len(fr.stack)-1]
		fr.stack = fr.stack[:len(fr.stack)-1]
		return v
	}
	pc := 0
	u16 := func() int {
		v := int(binary.LittleEndian.Uint16(code[pc:]))
		pc += 2
		return v
	}
	for pc < len(code) {
		in.steps++
		if in.steps&(cancelEvery-1) == 0 {
			if err := in.s.CancelErr(); err != nil {
				return oop.Invalid, err
			}
		}
		op := opCode(code[pc])
		pc++
		switch op {
		case opPushSelf:
			push(fr.self)
		case opPushLit:
			v, err := in.litValue(&lits[u16()])
			if err != nil {
				return oop.Invalid, err
			}
			push(v)
		case opPushTemp:
			push(fr.temps[code[pc]])
			pc++
		case opStoreTemp:
			fr.temps[code[pc]] = fr.stack[len(fr.stack)-1]
			pc++
		case opPushIVar:
			v, _, err := in.s.Fetch(fr.self, in.litSym(&lits[u16()]))
			if err != nil {
				return oop.Invalid, err
			}
			push(v)
		case opStoreIVar:
			sym := in.litSym(&lits[u16()])
			v := fr.stack[len(fr.stack)-1]
			if err := in.checkConstraint(fr.self, sym, v); err != nil {
				return oop.Invalid, err
			}
			if err := in.s.Store(fr.self, sym, v); err != nil {
				return oop.Invalid, err
			}
		case opPushGlobal:
			name := lits[u16()].s
			v, ok := in.s.Global(name)
			if !ok {
				return oop.Invalid, fmt.Errorf("opal: undefined name %q", name)
			}
			push(v)
		case opPop:
			pop()
		case opDup:
			push(fr.stack[len(fr.stack)-1])
		case opSend, opSuperSend:
			sel := &lits[u16()]
			argc := int(code[pc])
			pc++
			args := make([]oop.OOP, argc)
			for i := argc - 1; i >= 0; i-- {
				args[i] = pop()
			}
			recv := pop()
			var startClass oop.OOP
			if op == opSuperSend {
				sup, _, err := in.s.Fetch(fr.selfCls, in.wk.Superclass)
				if err != nil {
					return oop.Invalid, err
				}
				startClass = sup
			} else {
				startClass = in.classOf(recv)
			}
			v, err := in.sendToClass(recv, startClass, sel.s, in.litSym(sel), args)
			if err != nil {
				return oop.Invalid, err
			}
			push(v)
		case opJump:
			off := int(int16(binary.LittleEndian.Uint16(code[pc:])))
			pc += 2 + off
		case opJumpFalse, opJumpTrue:
			off := int(int16(binary.LittleEndian.Uint16(code[pc:])))
			pc += 2
			c := pop()
			b, ok := c.Bool()
			if !ok {
				return oop.Invalid, fmt.Errorf("opal: conditional on non-Boolean %s", in.safePrint(c))
			}
			if (op == opJumpFalse && !b) || (op == opJumpTrue && b) {
				pc += off
			}
		case opPushBlock:
			bc := lits[u16()].blk
			cl := &closure{code: bc, home: fr.home}
			push(in.registerBlock(cl))
		case opRetTop:
			return pop(), nil
		case opMethodRet:
			v := pop()
			if !isBlock {
				return v, nil
			}
			panic(nonLocal{home: fr.home, val: v})
		case opFetchElem:
			key := &lits[u16()]
			obj := pop()
			v, err := in.fetchElem(obj, key, nil)
			if err != nil {
				return oop.Invalid, err
			}
			push(v)
		case opFetchAt:
			key := &lits[u16()]
			t := pop()
			obj := pop()
			v, err := in.fetchElem(obj, key, &t)
			if err != nil {
				return oop.Invalid, err
			}
			push(v)
		case opQuery:
			cl := lits[u16()].calc
			binding := calculus.Binding{}
			prebound := map[string]bool{}
			for i, name := range cl.capNames {
				binding[name] = fr.temps[cl.capSlots[i]]
				prebound[name] = true
			}
			plan, err := algebra.OptimizeWithBound(cl.query, in.s, prebound)
			if err != nil {
				return oop.Invalid, err
			}
			rows, _, err := plan.ExecWith(in.s, binding)
			if err != nil {
				return oop.Invalid, err
			}
			out, err := in.rowsToCollection(rows)
			if err != nil {
				return oop.Invalid, err
			}
			push(out)
		case opStoreElem:
			key := &lits[u16()]
			v := pop()
			obj := pop()
			if !obj.IsHeap() {
				return oop.Invalid, fmt.Errorf("opal: cannot store element into %s", in.safePrint(obj))
			}
			name := in.litSym(key)
			if err := in.checkConstraint(obj, name, v); err != nil {
				return oop.Invalid, err
			}
			if err := in.s.Store(obj, name, v); err != nil {
				return oop.Invalid, err
			}
			push(v)
		}
	}
	// Falling off the end without opRetTop (shouldn't happen).
	return oop.Nil, nil
}

// segName converts a compiled path-segment key into an element-name OOP.
func (in *Interp) segName(key string) oop.OOP {
	if strings.HasPrefix(key, "\x00") {
		n, _ := strconv.ParseInt(key[1:], 10, 64)
		return oop.MustInt(n)
	}
	return in.s.Symbol(key)
}

// litSym resolves a selector, name or path-segment literal to its OOP on
// first execution and caches it in the literal, so running the same code
// again interns nothing. Literals belong to this interpreter's compiled
// code, never to another session's.
func (in *Interp) litSym(l *literal) oop.OOP {
	if l.sym == oop.Invalid {
		l.sym = in.segName(l.s)
	}
	return l.sym
}

func (in *Interp) fetchElem(obj oop.OOP, key *literal, at *oop.OOP) (oop.OOP, error) {
	if !obj.IsHeap() {
		return oop.Invalid, fmt.Errorf("opal: cannot navigate %q from %s", key.s, in.safePrint(obj))
	}
	name := in.litSym(key)
	if at == nil {
		v, _, err := in.s.Fetch(obj, name)
		return v, err
	}
	if !at.IsSmallInt() {
		return oop.Invalid, fmt.Errorf("opal: '@' time must be an integer")
	}
	v, _, err := in.s.FetchAt(obj, name, oop.Time(at.Int()))
	return v, err
}

// registerBlock gives a closure a transient pseudo-OOP.
func (in *Interp) registerBlock(cl *closure) oop.OOP {
	in.nextTrans++
	o := oop.FromSerial(in.nextTrans)
	in.blocks[in.nextTrans] = cl
	return o
}

func (in *Interp) blockFor(o oop.OOP) (*closure, bool) {
	cl, ok := in.blocks[o.Serial()]
	return cl, ok
}

// litValue materializes a literal-pool entry as a runtime value.
func (in *Interp) litValue(l *literal) (oop.OOP, error) {
	switch l.kind {
	case lkInt:
		v, ok := oop.FromInt(l.i)
		if !ok {
			return oop.Invalid, fmt.Errorf("opal: integer literal out of range")
		}
		return v, nil
	case lkFloat:
		return in.s.NewFloat(l.f)
	case lkString:
		return in.s.NewString(l.s)
	case lkSymbol, lkSelector:
		if l.sym == oop.Invalid {
			l.sym = in.s.Symbol(l.s)
		}
		return l.sym, nil
	case lkChar:
		return oop.FromChar([]rune(l.s)[0]), nil
	case lkTrue:
		return oop.True, nil
	case lkFalse:
		return oop.False, nil
	case lkNil:
		return oop.Nil, nil
	case lkArray:
		arr, err := in.s.NewObject(in.s.DB().Kernel().Array)
		if err != nil {
			return oop.Invalid, err
		}
		for i := range l.arr {
			v, err := in.litValue(&l.arr[i])
			if err != nil {
				return oop.Invalid, err
			}
			if err := in.s.Store(arr, oop.MustInt(int64(i+1)), v); err != nil {
				return oop.Invalid, err
			}
		}
		return arr, nil
	case lkBlock:
		return oop.Invalid, errors.New("opal: block literal outside execution context")
	}
	return oop.Invalid, fmt.Errorf("opal: bad literal kind %d", l.kind)
}

// Send dispatches a message from Go.
func (in *Interp) Send(recv oop.OOP, selector string, args ...oop.OOP) (oop.OOP, error) {
	return in.sendToClass(recv, in.classOf(recv), selector, in.s.Symbol(selector), args)
}

// classOf resolves the class of any value, including VM-transient blocks.
func (in *Interp) classOf(v oop.OOP) oop.OOP {
	if v.IsHeap() && v.Serial() >= transientBase {
		if _, ok := in.blocks[v.Serial()]; ok {
			return in.s.DB().Kernel().Block
		}
	}
	return in.s.ClassOf(v)
}

// sendToClass performs method lookup starting at a class and invokes the
// method (or primitive). sel is the selector's symbol.
func (in *Interp) sendToClass(recv, class oop.OOP, selector string, sel oop.OOP, args []oop.OOP) (oop.OOP, error) {
	cls := class
	for cls.IsHeap() {
		// User-defined (or kernel OPAL) method first, then primitive.
		if m, src, err := in.methodIn(cls, selector, sel); err != nil {
			return oop.Invalid, err
		} else if m != nil {
			_ = src
			return in.run(m, recv, cls, args)
		}
		if fn, ok := in.prims[primKey{class: cls, selector: selector}]; ok {
			return fn(in, recv, args)
		}
		sup, _, err := in.s.Fetch(cls, in.wk.Superclass)
		if err != nil {
			return oop.Invalid, err
		}
		cls = sup
	}
	return oop.Invalid, fmt.Errorf("opal: %s doesNotUnderstand: #%s", in.classNameOf(recv), selector)
}

// methodIn returns the compiled method defined directly in class for
// selector (whose symbol is sel), if any, compiling and caching as needed.
func (in *Interp) methodIn(class oop.OOP, selector string, sel oop.OOP) (*compiledMethod, oop.OOP, error) {
	dictOOP, ok, err := in.s.Fetch(class, in.wk.Methods)
	if err != nil || !ok || !dictOOP.IsHeap() {
		return nil, oop.Invalid, err
	}
	srcOOP, ok, err := in.s.Fetch(dictOOP, sel)
	if err != nil || !ok || srcOOP == oop.Nil {
		return nil, oop.Invalid, err
	}
	key := cacheKey{class: class.Serial(), selector: selector}
	if e, hit := in.cache[key]; hit && e.srcOOP == srcOOP {
		return e.compiled, srcOOP, nil
	}
	srcBytes, err := in.s.BytesOf(srcOOP)
	if err != nil {
		return nil, oop.Invalid, err
	}
	ivars, err := in.allInstVarNames(class)
	if err != nil {
		return nil, oop.Invalid, err
	}
	ast, err := parseMethod(string(srcBytes))
	if err != nil {
		return nil, oop.Invalid, fmt.Errorf("opal: in %s>>%s: %w", in.classNameOf(class), selector, err)
	}
	if ast.selector != selector {
		return nil, oop.Invalid, fmt.Errorf("opal: method stored under #%s has pattern #%s", selector, ast.selector)
	}
	m, err := compileMethod(ast, string(srcBytes), ivars)
	if err != nil {
		return nil, oop.Invalid, err
	}
	in.cache[key] = &cacheEntry{srcOOP: srcOOP, foundIn: class, compiled: m}
	return m, srcOOP, nil
}

// allInstVarNames collects declared instance variable names along the
// superclass chain (subclass first).
func (in *Interp) allInstVarNames(class oop.OOP) ([]string, error) {
	var names []string
	for c := class; c.IsHeap(); {
		arr, ok, err := in.s.Fetch(c, in.wk.InstVarNames)
		if err != nil {
			return nil, err
		}
		if ok && arr.IsHeap() {
			elems, err := in.s.ElementNames(arr)
			if err != nil {
				return nil, err
			}
			for _, nm := range elems {
				v, _, err := in.s.Fetch(arr, nm)
				if err != nil {
					return nil, err
				}
				if s, ok := in.s.SymbolName(v); ok {
					names = append(names, s)
				}
			}
		}
		sup, _, err := in.s.Fetch(c, in.wk.Superclass)
		if err != nil {
			return nil, err
		}
		c = sup
	}
	return names, nil
}

func (in *Interp) classNameOf(v oop.OOP) string {
	cls := in.s.ClassOf(v)
	return in.classNameOfClass(cls)
}

func (in *Interp) classNameOfClass(cls oop.OOP) string {
	nameSym, ok, err := in.s.Fetch(cls, in.wk.Name)
	if err != nil || !ok {
		return cls.String()
	}
	if s, ok := in.s.SymbolName(nameSym); ok {
		return s
	}
	return cls.String()
}

func (in *Interp) safePrint(v oop.OOP) string {
	s, err := in.PrintString(v)
	if err != nil {
		return v.String()
	}
	return s
}
