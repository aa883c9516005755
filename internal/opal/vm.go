package opal

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/oop"
)

// transientBase is the first pseudo-serial used for VM-transient values
// (blocks). These never reach the store.
const transientBase = uint64(1) << 48

// closure is a runtime block: compiled code plus its home activation, on
// which it runs.
type closure struct {
	code *blockCode
	home *frame
}

// frame is one method or doIt activation record; its blocks run on it.
type frame struct {
	interp   *Interp
	self     oop.OOP
	selfCls  oop.OOP // class the running method was found in (for super)
	temps    []oop.OOP
	ret      oop.OOP // the value of a ^ that is returning through errReturn
	returned bool    // run has exited: a block's ^ has nowhere to go
}

// nonLocal is the panic payload for ^-returns out of blocks.
type nonLocal struct {
	home *frame
	val  oop.OOP
}

var (
	// errReturn carries a ^ in a block inlined into a method's own body up
	// to the method's run, which answers frame.ret. It never leaves run.
	errReturn       = errors.New("opal: ^-return")
	errCannotReturn = errors.New("opal: block cannot return: its home method has returned")
)

// Interp executes OPAL code against a database session. One Interp per
// session (the paper's per-user Compiler + Interpreter pair, §6).
type Interp struct {
	s   *core.Session
	out strings.Builder // Transcript output

	prims     map[primKey]primFn
	cache     map[cacheKey]*compiledMethod
	dispatch  map[dispatchKey]dispatchEntry
	wk        core.ClassSymbols
	blocks    map[uint64]*closure // the current request's closures
	nextTrans uint64              // never reused, so a stale block OOP resolves to nothing
	callDepth int
	maxDepth  int
	steps     uint64 // sends, block calls and inlined-loop passes; amortizes cancellation polling
}

// cancelEvery is how many sends, block calls and inlined-loop passes run
// between request-context polls: often enough that a deadline interrupts a
// runaway loop within microseconds, rarely enough that the check never shows
// in a profile. Power of two so the modulus is a mask.
const cancelEvery = 1024

type primKey struct {
	class    oop.OOP
	selector string
}

// cacheKey is one compile: a method source, by identity, compiled for a
// class (whose instance variables fix its offsets) under a selector.
// compile: stores a new source string, so every version of a method that
// the session's reads reach — now, or at a dialled past time — keeps its
// own compile.
type cacheKey struct {
	class, src uint64
	selector   string
}

// dispatchKey is one method lookup: a selector's symbol sent to a class.
type dispatchKey struct {
	class, sel uint64
}

// dispatchEntry is a lookup's answer, valid while the session's View is
// view: the class that defines the selector and its compiled method or
// primitive. Both nil means the class does not understand it.
type dispatchEntry struct {
	view    core.View
	definer oop.OOP
	method  *compiledMethod
	prim    primFn
}

// NewInterp creates an interpreter bound to a session. It installs the
// kernel primitives and (once per database) the kernel method sources.
func NewInterp(s *core.Session) (*Interp, error) {
	in := &Interp{
		s:         s,
		prims:     make(map[primKey]primFn),
		cache:     make(map[cacheKey]*compiledMethod),
		dispatch:  make(map[dispatchKey]dispatchEntry),
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
	m, err := compileDoIt(ast)
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

// Path evaluates src, one path expression (X!a!b@T!c) or a bare variable,
// with env's names bound as locals that shadow globals. With store non-nil
// it assigns *store at the end of the path instead, subject to the
// element's constraint, and answers it. Any other source is rejected.
func (in *Interp) Path(src string, env map[string]oop.OOP, store *oop.OOP) (oop.OOP, error) {
	names := make([]string, 0, len(env))
	for name := range env {
		names = append(names, name)
	}
	slices.Sort(names)
	m, err := compilePath(src, names, store)
	if err != nil {
		return oop.Invalid, err
	}
	args := make([]oop.OOP, len(names))
	for i, name := range names {
		args[i] = env[name]
	}
	return in.run(m, oop.Nil, in.s.DB().Kernel().UndefinedObject, args)
}

// compilePath compiles Path's read or store of src, with names bound, in
// order, as the first temps.
func compilePath(src string, names []string, store *oop.OOP) (*compiledMethod, error) {
	toks, err := lexSource(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	target, err := p.pathOrVar()
	if err != nil {
		return nil, err
	}
	if !p.at(tkEOF) {
		return nil, p.errf("expected end of path, found %s", p.cur())
	}
	// A doIt's @(expr) runs any code; a path's time is data only.
	if pn, ok := target.(*pathNode); ok {
		for _, seg := range pn.segs {
			lit, isLit := seg.timeExp.(*literalNode)
			_, isVar := seg.timeExp.(*varNode)
			if seg.timeExp != nil && !isVar && !(isLit && lit.kind == litInt) {
				return nil, &parseErr{"path time must be an integer or a variable", seg.timeExp.pos()}
			}
		}
	}
	c := &compiler{sc: newScope(nil)}
	for _, name := range names {
		c.sc.bind(name)
	}
	var body code
	if store == nil {
		body, err = c.expr(target)
	} else if v, ok := target.(*varNode); ok {
		err = fmt.Errorf("opal: cannot assign to bare variable %q", v.name)
	} else {
		body, err = c.assignTo(target, constant(*store))
	}
	if err != nil {
		return nil, err
	}
	return &compiledMethod{numTemps: c.sc.next, body: body}, nil
}

// run executes a compiled method body.
func (in *Interp) run(m *compiledMethod, self, selfCls oop.OOP, args []oop.OOP) (res oop.OOP, err error) {
	if in.callDepth >= in.maxDepth {
		return oop.Invalid, fmt.Errorf("opal: call stack depth exceeded (%d)", in.maxDepth)
	}
	in.callDepth++
	fr := &frame{interp: in, self: self, selfCls: selfCls, temps: make([]oop.OOP, m.numTemps)}
	for i := range fr.temps {
		fr.temps[i] = oop.Nil
	}
	copy(fr.temps, args)
	defer func() {
		in.callDepth--
		fr.returned = true
		if r := recover(); r != nil {
			if nl, ok := r.(nonLocal); ok && nl.home == fr {
				res, err = nl.val, nil
				return
			}
			panic(r)
		}
	}()
	res, err = m.body(fr)
	if err == errReturn {
		return fr.ret, nil
	}
	return res, err
}

// callBlock invokes a closure with arguments. The block runs on its home
// activation, whose temp vector holds its arguments.
func (in *Interp) callBlock(cl *closure, args []oop.OOP) (oop.OOP, error) {
	if len(args) != cl.code.numArgs {
		return oop.Invalid, fmt.Errorf("opal: block expects %d arguments, got %d", cl.code.numArgs, len(args))
	}
	if in.callDepth >= in.maxDepth {
		return oop.Invalid, fmt.Errorf("opal: call stack depth exceeded (%d)", in.maxDepth)
	}
	if err := in.poll(); err != nil {
		return oop.Invalid, err
	}
	in.callDepth++
	defer func() { in.callDepth-- }()
	for i, slot := range cl.code.argSlots {
		cl.home.temps[slot] = args[i]
	}
	return cl.code.body(cl.home)
}

// poll counts one send, block call or inlined-loop pass, and every
// cancelEvery of them consults the request context.
func (in *Interp) poll() error {
	in.steps++
	if in.steps&(cancelEvery-1) != 0 {
		return nil
	}
	return in.s.CancelErr()
}

func (in *Interp) fetchElem(obj oop.OOP, key *symCell, at *oop.OOP) (oop.OOP, error) {
	if !obj.IsHeap() {
		return oop.Invalid, fmt.Errorf("opal: cannot navigate %q from %s", key.name, in.safePrint(obj))
	}
	name := key.get(in)
	if at == nil {
		v, _, err := in.s.Fetch(obj, name)
		return v, err
	}
	if !at.IsSmallInt() || at.Int() < 0 {
		return oop.Invalid, fmt.Errorf("opal: '@' time must be a non-negative integer")
	}
	v, _, err := in.s.FetchAt(obj, name, oop.Time(at.Int()))
	return v, err
}

// storeElem stores v under name in obj, subject to obj's constraints.
func (in *Interp) storeElem(obj, name, v oop.OOP) error {
	if err := in.checkConstraint(obj, name, v); err != nil {
		return err
	}
	return in.s.Store(obj, name, v)
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

// send sends the message sel names, whose OOP it caches, to recv.
func (in *Interp) send(recv oop.OOP, sel *symCell, args []oop.OOP) (oop.OOP, error) {
	class, err := in.classOf(recv)
	if err != nil {
		return oop.Invalid, err
	}
	return in.sendToClass(recv, class, sel.name, sel.get(in), args)
}

// Send dispatches a message from Go.
func (in *Interp) Send(recv oop.OOP, selector string, args ...oop.OOP) (oop.OOP, error) {
	class, err := in.classOf(recv)
	if err != nil {
		return oop.Invalid, err
	}
	return in.sendToClass(recv, class, selector, in.s.Symbol(selector), args)
}

// classOf resolves the class of any value, including VM-transient blocks.
func (in *Interp) classOf(v oop.OOP) (oop.OOP, error) {
	if v.IsHeap() && v.Serial() >= transientBase {
		if _, ok := in.blocks[v.Serial()]; ok {
			return in.s.DB().Kernel().Block, nil
		}
	}
	return in.s.ClassOf(v)
}

// sendToClass performs method lookup starting at a class and invokes the
// method (or primitive). sel is the selector's symbol.
func (in *Interp) sendToClass(recv, class oop.OOP, selector string, sel oop.OOP, args []oop.OOP) (oop.OOP, error) {
	if err := in.poll(); err != nil {
		return oop.Invalid, err
	}
	e, err := in.lookup(class, selector, sel)
	switch {
	case err != nil:
		return oop.Invalid, err
	case e.method != nil:
		return in.run(e.method, recv, e.definer, args)
	case e.prim != nil:
		return e.prim(in, recv, args)
	}
	name, err := in.classNameOf(recv)
	if err != nil {
		return oop.Invalid, err
	}
	return oop.Invalid, fmt.Errorf("opal: %s doesNotUnderstand: #%s", name, selector)
}

// lookup finds what a send of selector (whose symbol is sel) to an
// instance of class runs. It walks the class chain, in each class the
// user-defined (or kernel OPAL) method first, then the primitive. A walk
// that read only committed classes and method dictionaries is remembered
// until the session's View changes: until then every Fetch it made would
// answer the same, and its live reads are already in the read set.
func (in *Interp) lookup(class oop.OOP, selector string, sel oop.OOP) (dispatchEntry, error) {
	key := dispatchKey{class: class.Serial(), sel: sel.Serial()}
	e := dispatchEntry{view: in.s.View()}
	if hit, ok := in.dispatch[key]; ok && hit.view == e.view {
		return hit, nil
	}
	committed := true
	for cls := class; cls.IsHeap(); {
		committed = committed && in.s.Committed(cls)
		dict, ok, err := in.s.Fetch(cls, in.wk.Methods)
		if err != nil {
			return dispatchEntry{}, err
		}
		if ok && dict.IsHeap() {
			committed = committed && in.s.Committed(dict)
			if m, err := in.methodIn(cls, dict, selector, sel); err != nil {
				return dispatchEntry{}, err
			} else if m != nil {
				e.definer, e.method = cls, m
				break
			}
		}
		if fn, ok := in.prims[primKey{class: cls, selector: selector}]; ok {
			e.definer, e.prim = cls, fn
			break
		}
		if cls, _, err = in.s.Fetch(cls, in.wk.Superclass); err != nil {
			return dispatchEntry{}, err
		}
	}
	if committed {
		in.dispatch[key] = e
	}
	return e, nil
}

// methodIn returns the compiled method that class's method dictionary
// dictOOP holds for selector (whose symbol is sel), if any, compiling and
// caching as needed.
func (in *Interp) methodIn(class, dictOOP oop.OOP, selector string, sel oop.OOP) (*compiledMethod, error) {
	srcOOP, ok, err := in.s.Fetch(dictOOP, sel)
	if err != nil || !ok || srcOOP == oop.Nil {
		return nil, err
	}
	key := cacheKey{class: class.Serial(), src: srcOOP.Serial(), selector: selector}
	if m, hit := in.cache[key]; hit {
		return m, nil
	}
	srcBytes, err := in.s.BytesOf(srcOOP)
	if err != nil {
		return nil, err
	}
	ivars, err := in.allInstVarNames(class)
	if err != nil {
		return nil, err
	}
	ast, err := parseMethod(string(srcBytes))
	if err != nil {
		return nil, fmt.Errorf("opal: in %s>>%s: %w", in.classNameOfClass(class), selector, err)
	}
	if ast.selector != selector {
		return nil, fmt.Errorf("opal: method stored under #%s has pattern #%s", selector, ast.selector)
	}
	m, err := compileMethod(ast, ivars)
	if err != nil {
		return nil, err
	}
	in.cache[key] = m
	return m, nil
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

func (in *Interp) classNameOf(v oop.OOP) (string, error) {
	cls, err := in.classOf(v)
	if err != nil {
		return "", err
	}
	return in.classNameOfClass(cls), nil
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
