package opal

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/object"
	"repro/internal/oop"
)

// primFn is a primitive method body.
type primFn func(in *Interp, recv oop.OOP, args []oop.OOP) (oop.OOP, error)

func (in *Interp) classByName(name string) oop.OOP {
	c, ok := in.s.Global(name)
	if !ok {
		panic(fmt.Sprintf("opal: kernel class %s missing", name))
	}
	return c
}

func (in *Interp) reg(className, selector string, fn primFn) {
	in.prims[primKey{class: in.classByName(className), selector: selector}] = fn
}

// --- number helpers ---

type num struct {
	isFloat bool
	i       int64
	f       float64
}

func (in *Interp) asNum(v oop.OOP) (num, bool, error) {
	if v.IsSmallInt() {
		return num{i: v.Int()}, true, nil
	}
	if !v.IsHeap() {
		return num{}, false, nil
	}
	cls, err := in.s.ClassOf(v)
	if err != nil || cls != in.s.DB().Kernel().Float {
		return num{}, false, err
	}
	f, err := in.s.FloatValue(v)
	if err != nil {
		return num{}, false, err
	}
	return num{isFloat: true, f: f}, true, nil
}

func (n num) float() float64 {
	if n.isFloat {
		return n.f
	}
	return float64(n.i)
}

func (in *Interp) numResult(isFloat bool, i int64, f float64) (oop.OOP, error) {
	if isFloat {
		return in.s.NewFloat(f)
	}
	v, ok := oop.FromInt(i)
	if !ok {
		return in.s.NewFloat(float64(i)) // overflow degrades to Float
	}
	return v, nil
}

// negatedInt answers -i, or an error when i is MinSmallInt, whose negation
// is not a SmallInteger.
func negatedInt(i int64) (oop.OOP, error) {
	if v, ok := oop.FromInt(-i); ok {
		return v, nil
	}
	return oop.Invalid, fmt.Errorf("opal: %d negated is out of SmallInteger range", i)
}

func (in *Interp) numPrim(sel string, recv oop.OOP, args []oop.OOP) (oop.OOP, error) {
	a, ok, err := in.asNum(recv)
	if err != nil {
		return oop.Invalid, err
	}
	if !ok {
		return oop.Invalid, fmt.Errorf("opal: %s is not a number", in.safePrint(recv))
	}
	b, ok, err := in.asNum(args[0])
	if err != nil {
		return oop.Invalid, err
	}
	if !ok {
		return oop.Invalid, fmt.Errorf("opal: %s is not a number", in.safePrint(args[0]))
	}
	fl := a.isFloat || b.isFloat
	switch sel {
	case "+":
		if fl {
			return in.numResult(true, 0, a.float()+b.float())
		}
		return in.numResult(false, a.i+b.i, 0)
	case "-":
		if fl {
			return in.numResult(true, 0, a.float()-b.float())
		}
		return in.numResult(false, a.i-b.i, 0)
	case "*":
		if fl {
			return in.numResult(true, 0, a.float()*b.float())
		}
		return in.numResult(false, a.i*b.i, 0)
	case "/":
		if b.float() == 0 {
			return oop.Invalid, fmt.Errorf("opal: division by zero")
		}
		if !fl && a.i%b.i == 0 {
			return in.numResult(false, a.i/b.i, 0)
		}
		return in.numResult(true, 0, a.float()/b.float())
	case "//":
		if !fl {
			if b.i == 0 {
				return oop.Invalid, fmt.Errorf("opal: division by zero")
			}
			return in.numResult(false, floorDiv(a.i, b.i), 0)
		}
		return in.numResult(true, 0, math.Floor(a.float()/b.float()))
	case "\\\\":
		if !fl {
			if b.i == 0 {
				return oop.Invalid, fmt.Errorf("opal: division by zero")
			}
			return in.numResult(false, a.i-floorDiv(a.i, b.i)*b.i, 0)
		}
		return in.numResult(true, 0, math.Mod(a.float(), b.float()))
	case "<":
		return oop.FromBool(a.float() < b.float()), nil
	case "<=":
		return oop.FromBool(a.float() <= b.float()), nil
	case ">":
		return oop.FromBool(a.float() > b.float()), nil
	case ">=":
		return oop.FromBool(a.float() >= b.float()), nil
	case "=":
		return oop.FromBool(a.float() == b.float()), nil
	case "~=":
		return oop.FromBool(a.float() != b.float()), nil
	}
	return oop.Invalid, fmt.Errorf("opal: bad numeric selector %s", sel)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// --- string helpers ---

func (in *Interp) stringValue(v oop.OOP) (string, bool, error) {
	if !v.IsHeap() {
		return "", false, nil
	}
	cls, err := in.s.ClassOf(v)
	if err != nil {
		return "", false, err
	}
	if k := in.s.DB().Kernel(); cls != k.String && cls != k.Symbol {
		return "", false, nil
	}
	b, err := in.s.BytesOf(v)
	if err != nil {
		return "", false, err
	}
	return string(b), true, nil
}

// mustString is v's contents if v is a String or Symbol, else notString.
func (in *Interp) mustString(v oop.OOP, notString error) (string, error) {
	s, ok, err := in.stringValue(v)
	if err == nil && !ok {
		err = notString
	}
	return s, err
}

// stringPrim adapts fn, a primitive over its String receiver's contents.
func stringPrim(fn func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error)) primFn {
	return func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		s, _, err := in.stringValue(r)
		if err != nil {
			return oop.Invalid, err
		}
		return fn(in, r, s, a)
	}
}

// numPrimOf adapts fn, a primitive over its Number receiver's value.
func numPrimOf(fn func(in *Interp, r oop.OOP, n num, a []oop.OOP) (oop.OOP, error)) primFn {
	return func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, _, err := in.asNum(r)
		if err != nil {
			return oop.Invalid, err
		}
		return fn(in, r, n, a)
	}
}

// isInstance reports whether v's class is exactly cls.
func (in *Interp) isInstance(v, cls oop.OOP) (bool, error) {
	c, err := in.s.ClassOf(v)
	return err == nil && c == cls, err
}

// equalValues applies OPAL '=' semantics: numbers by value, strings and
// symbols by contents, characters by code point, everything else identity.
func (in *Interp) equalValues(a, b oop.OOP) (bool, error) {
	if a == b {
		return true, nil
	}
	if an, ok, err := in.asNum(a); err != nil || ok {
		if err != nil {
			return false, err
		}
		bn, ok, err := in.asNum(b)
		return ok && an.float() == bn.float(), err
	}
	as, ok, err := in.stringValue(a)
	if err != nil || !ok {
		return false, err
	}
	bs, ok, err := in.stringValue(b)
	return ok && as == bs, err
}

// --- collection helpers ---

func (in *Interp) arraySize(arr oop.OOP) (int64, error) {
	v, ok, err := in.s.Fetch(arr, in.s.Symbol("__size"))
	if err != nil {
		return 0, err
	}
	if ok && v.IsSmallInt() {
		return v.Int(), nil
	}
	// Untracked indexed object (built through raw stores): max index.
	names, err := in.s.ElementNames(arr)
	if err != nil {
		return 0, err
	}
	var max int64
	for _, n := range names {
		if n.IsSmallInt() && n.Int() > max {
			max = n.Int()
		}
	}
	return max, nil
}

func (in *Interp) setArraySize(arr oop.OOP, n int64) error {
	return in.s.Store(arr, in.s.Symbol("__size"), oop.MustInt(n))
}

// newArrayWith builds a fresh Array holding vals.
func (in *Interp) newArrayWith(vals []oop.OOP) (oop.OOP, error) {
	arr, err := in.s.NewObject(in.s.DB().Kernel().Array)
	if err != nil {
		return oop.Invalid, err
	}
	for i, v := range vals {
		if err := in.s.Store(arr, oop.MustInt(int64(i+1)), v); err != nil {
			return oop.Invalid, err
		}
	}
	if err := in.setArraySize(arr, int64(len(vals))); err != nil {
		return oop.Invalid, err
	}
	return arr, nil
}

// isHiddenName filters bookkeeping element names out of user iteration.
func (in *Interp) isHiddenName(name oop.OOP) bool {
	s, ok := in.s.SymbolName(name)
	return ok && strings.HasPrefix(s, "__")
}

// setMembers lists a labeled set's member values (current view).
func (in *Interp) setMembers(set oop.OOP) ([]oop.OOP, []oop.OOP, error) {
	names, err := in.s.ElementNames(set)
	if err != nil {
		return nil, nil, err
	}
	var ms, ns []oop.OOP
	for _, n := range names {
		if in.isHiddenName(n) {
			continue
		}
		v, ok, err := in.s.Fetch(set, n)
		if err != nil {
			return nil, nil, err
		}
		if ok && v != oop.Nil {
			ms = append(ms, v)
			ns = append(ns, n)
		}
	}
	return ms, ns, nil
}

func (in *Interp) mustBlock(v oop.OOP) (*closure, error) {
	cl, ok := in.blockFor(v)
	if !ok {
		return nil, fmt.Errorf("opal: %s is not a block", in.safePrint(v))
	}
	return cl, nil
}

// --- the primitive table ---

func (in *Interp) installPrimitives() {
	k := in.s.DB().Kernel()
	_ = k

	// Object
	in.reg("Object", "==", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(r == a[0]), nil
	})
	in.reg("Object", "~~", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(r != a[0]), nil
	})
	in.reg("Object", "=", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		eq, err := in.equalValues(r, a[0])
		return oop.FromBool(eq), err
	})
	in.reg("Object", "~=", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		eq, err := in.equalValues(r, a[0])
		return oop.FromBool(!eq), err
	})
	in.reg("Object", "isNil", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(r == oop.Nil), nil
	})
	in.reg("Object", "notNil", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(r != oop.Nil), nil
	})
	in.reg("Object", "class", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return in.classOf(r)
	})
	in.reg("Object", "yourself", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return r, nil
	})
	in.reg("Object", "hash", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.MustInt(int64(uint64(r) % (1 << 30))), nil
	})
	in.reg("Object", "printString", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		s, err := in.PrintString(r)
		if err != nil {
			return oop.Invalid, err
		}
		return in.s.NewString(s)
	})
	in.reg("Object", "error:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		msg, _, err := in.stringValue(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		return oop.Invalid, fmt.Errorf("opal: error: %s", msg)
	})
	in.reg("Object", "->", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		assoc, err := in.s.NewObject(in.s.DB().Kernel().Association)
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(assoc, in.s.Symbol("key"), r); err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(assoc, in.s.Symbol("value"), a[0]); err != nil {
			return oop.Invalid, err
		}
		return assoc, nil
	})
	in.reg("Object", "isKindOf:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		ok, err := in.valueIsKindOf(r, a[0])
		return oop.FromBool(ok), err
	})
	in.reg("Object", "isMemberOf:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		c, err := in.classOf(r)
		return oop.FromBool(c == a[0]), err
	})
	in.reg("Object", "respondsTo:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		sel, ok := in.s.SymbolName(a[0])
		if !ok {
			s, ok2, err := in.stringValue(a[0])
			if err != nil {
				return oop.Invalid, err
			}
			if ok2 {
				sel = s
			} else {
				return oop.False, nil
			}
		}
		c, err := in.classOf(r)
		if err != nil {
			return oop.Invalid, err
		}
		e, err := in.lookup(c, sel, in.s.Symbol(sel))
		if err != nil {
			return oop.Invalid, err
		}
		return oop.FromBool(e.method != nil || e.prim != nil), nil
	})
	// Raw labeled-set element protocol (the GSDM view of every object).
	in.reg("Object", "at:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, _, err := in.s.Fetch(r, a[0])
		return v, err
	})
	in.reg("Object", "at:put:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if err := in.checkConstraint(r, a[0], a[1]); err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(r, a[0], a[1]); err != nil {
			return oop.Invalid, err
		}
		return a[1], nil
	})
	in.reg("Object", "at:atTime:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !a[1].IsSmallInt() || a[1].Int() < 0 {
			return oop.Invalid, fmt.Errorf("opal: at:atTime: needs a non-negative integer")
		}
		v, _, err := in.s.FetchAt(r, a[0], oop.Time(a[1].Int()))
		return v, err
	})
	in.reg("Object", "removeElement:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if err := in.s.Remove(r, a[0]); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})
	in.reg("Object", "elementNames", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		names, err := in.s.ElementNames(r)
		if err != nil {
			return oop.Invalid, err
		}
		var visible []oop.OOP
		for _, n := range names {
			if !in.isHiddenName(n) {
				visible = append(visible, n)
			}
		}
		return in.newArrayWith(visible)
	})
	in.reg("Object", "copy", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !r.IsHeap() {
			return r, nil
		}
		ob, err := in.s.Object(r)
		if err != nil {
			return oop.Invalid, err
		}
		cp, err := in.s.NewObjectIn(ob.Class, ob.Seg)
		if err != nil {
			return oop.Invalid, err
		}
		if ob.Format == object.FormatBytes {
			b, err := in.s.BytesOf(r)
			if err != nil {
				return oop.Invalid, err
			}
			if err := in.s.SetBytes(cp, b); err != nil {
				return oop.Invalid, err
			}
			return cp, nil
		}
		names, err := in.s.ElementNames(r)
		if err != nil {
			return oop.Invalid, err
		}
		for _, n := range names {
			v, _, err := in.s.Fetch(r, n)
			if err != nil {
				return oop.Invalid, err
			}
			if err := in.s.Store(cp, n, v); err != nil {
				return oop.Invalid, err
			}
		}
		return cp, nil
	})

	// Boolean
	in.reg("Boolean", "not", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		b, ok := r.Bool()
		if !ok {
			return oop.Invalid, fmt.Errorf("opal: not on non-Boolean")
		}
		return oop.FromBool(!b), nil
	})
	in.reg("Boolean", "&", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		rb, ok1 := r.Bool()
		ab, ok2 := a[0].Bool()
		if !ok1 || !ok2 {
			return oop.Invalid, fmt.Errorf("opal: & on non-Boolean")
		}
		return oop.FromBool(rb && ab), nil
	})
	in.reg("Boolean", "|", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		rb, ok1 := r.Bool()
		ab, ok2 := a[0].Bool()
		if !ok1 || !ok2 {
			return oop.Invalid, fmt.Errorf("opal: | on non-Boolean")
		}
		return oop.FromBool(rb || ab), nil
	})
	// Non-inlined control flow (block arguments as values).
	boolBlock := func(sel string) primFn {
		return func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
			b, ok := r.Bool()
			if !ok {
				return oop.Invalid, fmt.Errorf("opal: %s on non-Boolean", sel)
			}
			run := func(v oop.OOP) (oop.OOP, error) {
				if cl, isBlock := in.blockFor(v); isBlock {
					return in.callBlock(cl, nil)
				}
				return v, nil
			}
			switch sel {
			case "ifTrue:":
				if b {
					return run(a[0])
				}
				return oop.Nil, nil
			case "ifFalse:":
				if !b {
					return run(a[0])
				}
				return oop.Nil, nil
			case "ifTrue:ifFalse:":
				if b {
					return run(a[0])
				}
				return run(a[1])
			case "ifFalse:ifTrue:":
				if !b {
					return run(a[0])
				}
				return run(a[1])
			case "and:":
				if !b {
					return oop.False, nil
				}
				return run(a[0])
			case "or:":
				if b {
					return oop.True, nil
				}
				return run(a[0])
			}
			return oop.Invalid, fmt.Errorf("opal: bad boolean selector")
		}
	}
	for _, sel := range []string{"ifTrue:", "ifFalse:", "ifTrue:ifFalse:", "ifFalse:ifTrue:", "and:", "or:"} {
		in.reg("Boolean", sel, boolBlock(sel))
	}

	// Numbers (registered on Number; SmallInteger and Float inherit).
	for _, sel := range []string{"+", "-", "*", "/", "//", "\\\\", "<", "<=", ">", ">=", "=", "~="} {
		sel := sel
		in.reg("Number", sel, func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
			return in.numPrim(sel, r, a)
		})
	}
	in.reg("Number", "abs", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, ok, err := in.asNum(r)
		if err != nil {
			return oop.Invalid, err
		}
		if !ok {
			return oop.Invalid, fmt.Errorf("opal: abs on non-number")
		}
		if n.isFloat {
			return in.s.NewFloat(math.Abs(n.f))
		}
		if n.i < 0 {
			return negatedInt(n.i)
		}
		return r, nil
	})
	in.reg("Number", "negated", numPrimOf(func(in *Interp, r oop.OOP, n num, a []oop.OOP) (oop.OOP, error) {
		if n.isFloat {
			return in.s.NewFloat(-n.f)
		}
		return negatedInt(n.i)
	}))
	in.reg("Number", "asFloat", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, ok, err := in.asNum(r)
		if err != nil {
			return oop.Invalid, err
		}
		if !ok {
			return oop.Invalid, fmt.Errorf("opal: asFloat on non-number")
		}
		return in.s.NewFloat(n.float())
	})
	in.reg("Number", "asInteger", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		n, ok, err := in.asNum(r)
		if err != nil {
			return oop.Invalid, err
		}
		if !ok {
			return oop.Invalid, fmt.Errorf("opal: asInteger on non-number")
		}
		if !n.isFloat {
			return r, nil
		}
		// Past ±2^63, and for NaN, Go's conversion answers an arbitrary int64.
		if math.Abs(n.f) < math.MaxInt64 {
			if v, ok := oop.FromInt(int64(n.f)); ok {
				return v, nil
			}
		}
		return oop.Invalid, fmt.Errorf("opal: %s asInteger is out of SmallInteger range", in.safePrint(r))
	})
	in.reg("Number", "asCharacter", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !r.IsSmallInt() || r.Int() < 0 || r.Int() > 0x10FFFF {
			return oop.Invalid, fmt.Errorf("opal: asCharacter needs a code point")
		}
		return oop.FromChar(rune(r.Int())), nil
	})
	in.reg("Number", "sqrt", numPrimOf(func(in *Interp, r oop.OOP, n num, a []oop.OOP) (oop.OOP, error) {
		return in.s.NewFloat(math.Sqrt(n.float()))
	}))
	in.reg("Number", "even", numPrimOf(func(in *Interp, r oop.OOP, n num, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(!n.isFloat && n.i%2 == 0), nil
	}))
	in.reg("Number", "odd", numPrimOf(func(in *Interp, r oop.OOP, n num, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(!n.isFloat && n.i%2 != 0), nil
	}))

	// Character
	in.reg("Character", "asInteger", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return oop.MustInt(int64(r.Char())), nil
	})
	in.reg("Character", "asString", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return in.s.NewString(string(r.Char()))
	})
	in.reg("Character", "<", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsCharacter() {
			return oop.Invalid, fmt.Errorf("opal: comparing Character with %s", in.safePrint(a[0]))
		}
		return oop.FromBool(r.Char() < a[0].Char()), nil
	})

	// String / Symbol
	strCmp := func(sel string) primFn {
		return func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
			rs, ok1, err := in.stringValue(r)
			if err != nil {
				return oop.Invalid, err
			}
			as, ok2, err := in.stringValue(a[0])
			if err != nil {
				return oop.Invalid, err
			}
			if !ok1 || !ok2 {
				return oop.Invalid, fmt.Errorf("opal: string comparison with non-string")
			}
			switch sel {
			case "<":
				return oop.FromBool(rs < as), nil
			case "<=":
				return oop.FromBool(rs <= as), nil
			case ">":
				return oop.FromBool(rs > as), nil
			case ">=":
				return oop.FromBool(rs >= as), nil
			}
			return oop.Invalid, nil
		}
	}
	for _, sel := range []string{"<", "<=", ">", ">="} {
		in.reg("String", sel, strCmp(sel))
	}
	in.reg("String", ",", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		rs, ok1, err := in.stringValue(r)
		if err != nil {
			return oop.Invalid, err
		}
		as, ok2, err := in.stringValue(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		if !ok2 {
			as = in.safePrint(a[0])
		}
		if !ok1 {
			return oop.Invalid, fmt.Errorf("opal: , on non-string")
		}
		return in.s.NewString(rs + as)
	})
	in.reg("String", "size", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		return oop.MustInt(int64(len(s))), nil
	}))
	in.reg("String", "isEmpty", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		return oop.FromBool(len(s) == 0), nil
	}))
	in.reg("String", "at:", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() || a[0].Int() < 1 || a[0].Int() > int64(len(s)) {
			return oop.Invalid, fmt.Errorf("opal: string index out of bounds")
		}
		return oop.FromChar(rune(s[a[0].Int()-1])), nil
	}))
	in.reg("String", "at:put:", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() || a[0].Int() < 1 || a[0].Int() > int64(len(s)) {
			return oop.Invalid, fmt.Errorf("opal: string index out of bounds")
		}
		if !a[1].IsCharacter() {
			return oop.Invalid, fmt.Errorf("opal: string at:put: needs a Character")
		}
		b := []byte(s)
		b[a[0].Int()-1] = byte(a[1].Char())
		if err := in.s.SetBytes(r, b); err != nil {
			return oop.Invalid, err
		}
		return a[1], nil
	}))
	in.reg("String", "copyFrom:to:", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() || !a[1].IsSmallInt() {
			return oop.Invalid, fmt.Errorf("opal: copyFrom:to: needs integers")
		}
		from, to := a[0].Int(), a[1].Int()
		if from < 1 || to > int64(len(s)) || from > to+1 {
			return oop.Invalid, fmt.Errorf("opal: copyFrom:to: out of bounds")
		}
		return in.s.NewString(s[from-1 : to])
	}))
	in.reg("String", "asSymbol", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		return in.s.Symbol(s), nil
	}))
	in.reg("String", "asString", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		is, err := in.isInstance(r, in.s.DB().Kernel().Symbol)
		if err != nil {
			return oop.Invalid, err
		}
		if is {
			return in.s.NewString(s)
		}
		return r, nil
	}))
	in.reg("String", "asUppercase", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		return in.s.NewString(strings.ToUpper(s))
	}))
	in.reg("String", "asLowercase", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		return in.s.NewString(strings.ToLower(s))
	}))
	in.reg("String", "includesString:", stringPrim(func(in *Interp, r oop.OOP, rs string, a []oop.OOP) (oop.OOP, error) {
		as, err := in.mustString(a[0], fmt.Errorf("opal: includesString: needs a string"))
		if err != nil {
			return oop.Invalid, err
		}
		return oop.FromBool(strings.Contains(rs, as)), nil
	}))
	in.reg("String", "do:", stringPrim(func(in *Interp, r oop.OOP, s string, a []oop.OOP) (oop.OOP, error) {
		cl, err := in.mustBlock(a[0])
		if err != nil {
			return oop.Invalid, err
		}
		for _, c := range s {
			if _, err := in.callBlock(cl, []oop.OOP{oop.FromChar(c)}); err != nil {
				return oop.Invalid, err
			}
		}
		return r, nil
	}))

	// Class (class-side behavior; classes are instances of Class)
	in.reg("Class", "new", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return in.instantiate(r, 0)
	})
	in.reg("Class", "new:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if !a[0].IsSmallInt() || a[0].Int() < 0 {
			return oop.Invalid, fmt.Errorf("opal: new: needs a non-negative integer")
		}
		return in.instantiate(r, a[0].Int())
	})
	in.reg("Class", "name", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, _, err := in.s.Fetch(r, in.wk.Name)
		return v, err
	})
	in.reg("Class", "superclass", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, _, err := in.s.Fetch(r, in.wk.Superclass)
		return v, err
	})
	in.reg("Class", "instVarNames", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		v, _, err := in.s.Fetch(r, in.wk.InstVarNames)
		return v, err
	})
	in.reg("Class", "comment:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		if err := in.s.Store(r, in.s.Symbol("comment"), a[0]); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})
	subclassPrim := func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		name, err := in.mustString(a[0], fmt.Errorf("opal: subclass name must be a string"))
		if err != nil {
			return oop.Invalid, err
		}
		var ivars []string
		if len(a) > 1 && a[1] != oop.Nil {
			vals, err := in.arrayValues(a[1])
			if err != nil {
				return oop.Invalid, err
			}
			for _, v := range vals {
				s, ok, err := in.stringValue(v)
				if err != nil {
					return oop.Invalid, err
				}
				if !ok {
					if sym, ok2 := in.s.SymbolName(v); ok2 {
						s = sym
					} else {
						return oop.Invalid, fmt.Errorf("opal: instVarNames must be strings or symbols")
					}
				}
				ivars = append(ivars, s)
			}
		}
		return in.defineClass(name, r, ivars)
	}
	in.reg("Class", "subclass:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		return subclassPrim(in, r, a[:1])
	})
	in.reg("Class", "subclass:instVarNames:", subclassPrim)
	in.reg("Class", "subclass:instVarNames:classComment:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		cls, err := subclassPrim(in, r, a[:2])
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(cls, in.s.Symbol("comment"), a[2]); err != nil {
			return oop.Invalid, err
		}
		return cls, nil
	})
	in.reg("Class", "compile:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		src, err := in.mustString(a[0], fmt.Errorf("opal: compile: needs method source"))
		if err != nil {
			return oop.Invalid, err
		}
		return in.defineMethod(r, src)
	})
	in.reg("Class", "removeSelector:", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		sel, ok := in.s.SymbolName(a[0])
		if !ok {
			return oop.Invalid, fmt.Errorf("opal: removeSelector: needs a symbol")
		}
		dict, _, err := in.s.Fetch(r, in.wk.Methods)
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Remove(dict, in.s.Symbol(sel)); err != nil {
			return oop.Invalid, err
		}
		return r, nil
	})
	in.reg("Class", "selectors", func(in *Interp, r oop.OOP, a []oop.OOP) (oop.OOP, error) {
		dict, ok, err := in.s.Fetch(r, in.wk.Methods)
		if err != nil || !ok {
			return in.newArrayWith(nil)
		}
		names, err := in.s.ElementNames(dict)
		if err != nil {
			return oop.Invalid, err
		}
		return in.newArrayWith(names)
	})

	in.installCollectionPrims()
	in.installSystemPrims()
	in.installBlockPrims()
	in.installConstraintPrims()
	in.installReflectionPrims()
	in.installHistoryPrims()
}

// arrayValues extracts the ordered values of an indexed object.
func (in *Interp) arrayValues(arr oop.OOP) ([]oop.OOP, error) {
	n, err := in.arraySize(arr)
	if err != nil {
		return nil, err
	}
	out := make([]oop.OOP, 0, n)
	for i := int64(1); i <= n; i++ {
		v, _, err := in.s.Fetch(arr, oop.MustInt(i))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// instantiate creates an instance of class with an optional indexed size.
func (in *Interp) instantiate(class oop.OOP, size int64) (oop.OOP, error) {
	o, err := in.s.NewObject(class)
	if err != nil {
		return oop.Invalid, err
	}
	f, _, _ := in.s.Fetch(class, in.s.Symbol("format"))
	if f.IsSmallInt() && object.Format(f.Int()) == object.FormatIndexed {
		if err := in.setArraySize(o, size); err != nil {
			return oop.Invalid, err
		}
		for i := int64(1); i <= size; i++ {
			if err := in.s.Store(o, oop.MustInt(i), oop.Nil); err != nil {
				return oop.Invalid, err
			}
		}
	}
	return o, nil
}

// defineClass creates a new persistent class and binds it as a global.
func (in *Interp) defineClass(name string, super oop.OOP, ivars []string) (oop.OOP, error) {
	if existing, ok := in.s.Global(name); ok {
		// Redefinition: keep identity, update superclass and ivars.
		is, err := in.isInstance(existing, in.s.DB().Kernel().Class)
		if err != nil {
			return oop.Invalid, err
		}
		if !is {
			return oop.Invalid, fmt.Errorf("opal: global %q is not a class", name)
		}
		if err := in.s.Store(existing, in.wk.Superclass, super); err != nil {
			return oop.Invalid, err
		}
		arr, err := in.symbolArray(ivars)
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(existing, in.wk.InstVarNames, arr); err != nil {
			return oop.Invalid, err
		}
		// Instance-variable offsets changed under unchanged sources: no
		// compiled method or lookup of this interpreter survives.
		clear(in.cache)
		clear(in.dispatch)
		return existing, nil
	}
	k := in.s.DB().Kernel()
	cls, err := in.s.NewObject(k.Class)
	if err != nil {
		return oop.Invalid, err
	}
	if err := in.s.Store(cls, in.wk.Name, in.s.Symbol(name)); err != nil {
		return oop.Invalid, err
	}
	if err := in.s.Store(cls, in.wk.Superclass, super); err != nil {
		return oop.Invalid, err
	}
	arr, err := in.symbolArray(ivars)
	if err != nil {
		return oop.Invalid, err
	}
	if err := in.s.Store(cls, in.wk.InstVarNames, arr); err != nil {
		return oop.Invalid, err
	}
	// Instances share the superclass's storage format.
	f, _, _ := in.s.Fetch(super, in.s.Symbol("format"))
	if !f.IsSmallInt() {
		f = oop.MustInt(int64(object.FormatNamed))
	}
	if err := in.s.Store(cls, in.s.Symbol("format"), f); err != nil {
		return oop.Invalid, err
	}
	dict, err := in.s.NewObject(k.Dictionary)
	if err != nil {
		return oop.Invalid, err
	}
	if err := in.s.Store(cls, in.wk.Methods, dict); err != nil {
		return oop.Invalid, err
	}
	if err := in.s.SetGlobal(name, cls); err != nil {
		return oop.Invalid, err
	}
	return cls, nil
}

func (in *Interp) symbolArray(names []string) (oop.OOP, error) {
	vals := make([]oop.OOP, len(names))
	for i, n := range names {
		vals[i] = in.s.Symbol(n)
	}
	return in.newArrayWith(vals)
}

// defineMethod parses a method source, validates it, and stores it in the
// class's method dictionary.
func (in *Interp) defineMethod(class oop.OOP, src string) (oop.OOP, error) {
	ast, err := parseMethod(src)
	if err != nil {
		return oop.Invalid, err
	}
	ivars, err := in.allInstVarNames(class)
	if err != nil {
		return oop.Invalid, err
	}
	if _, err := compileMethod(ast, ivars); err != nil {
		return oop.Invalid, err
	}
	dict, ok, err := in.s.Fetch(class, in.wk.Methods)
	if err != nil {
		return oop.Invalid, err
	}
	if !ok || !dict.IsHeap() {
		d, err := in.s.NewObject(in.s.DB().Kernel().Dictionary)
		if err != nil {
			return oop.Invalid, err
		}
		if err := in.s.Store(class, in.wk.Methods, d); err != nil {
			return oop.Invalid, err
		}
		dict = d
	}
	srcObj, err := in.s.NewString(src)
	if err != nil {
		return oop.Invalid, err
	}
	if err := in.s.Store(dict, in.s.Symbol(ast.selector), srcObj); err != nil {
		return oop.Invalid, err
	}
	return in.s.Symbol(ast.selector), nil
}

// --- Calculus query support ---

// runQuery executes a calculus query string and returns the rows as an
// OrderedCollection of Dictionaries keyed by the target labels.
func (in *Interp) runQuery(src string, naive bool) (oop.OOP, error) {
	var rows []algebra.Tuple
	var err error
	if naive {
		rows, _, err = algebra.RunNaive(in.s, src)
	} else {
		rows, _, err = algebra.Run(in.s, src)
	}
	if err != nil {
		return oop.Invalid, err
	}
	return in.rowsToCollection(rows)
}

// rowsToCollection materializes query result tuples as an
// OrderedCollection of Dictionaries keyed by the target labels.
func (in *Interp) rowsToCollection(rows []algebra.Tuple) (oop.OOP, error) {
	k := in.s.DB().Kernel()
	out, err := in.s.NewObject(k.OrderedCollection)
	if err != nil {
		return oop.Invalid, err
	}
	for i, row := range rows {
		d, err := in.s.NewObject(k.Dictionary)
		if err != nil {
			return oop.Invalid, err
		}
		for j, label := range row.Labels {
			if err := in.s.Store(d, in.s.Symbol(label), row.Values[j]); err != nil {
				return oop.Invalid, err
			}
		}
		if err := in.s.Store(out, oop.MustInt(int64(i+1)), d); err != nil {
			return oop.Invalid, err
		}
	}
	if err := in.setArraySize(out, int64(len(rows))); err != nil {
		return oop.Invalid, err
	}
	return out, nil
}

// explainQuery returns the optimized plan for a query string.
func (in *Interp) explainQuery(src string) (string, error) {
	q, err := calculus.Parse(src)
	if err != nil {
		return "", err
	}
	p, err := algebra.Optimize(q, in.s)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}
