package calculus

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/oop"
)

// Env supplies variable values during evaluation. Binding is the map-backed
// implementation; the algebra executor supplies a reusable slot-frame
// implementation so streaming pipelines bind variables without allocating
// per row.
type Env interface {
	LookupVar(name string) (oop.OOP, bool)
}

// Binding maps calculus variables to values during evaluation.
type Binding map[string]oop.OOP

// LookupVar implements Env.
func (b Binding) LookupVar(name string) (oop.OOP, bool) {
	v, ok := b[name]
	return v, ok
}

// Clone copies a binding (iterators extend bindings without aliasing).
func (b Binding) Clone() Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Value is a decoded runtime value: comparisons in the calculus are
// structural for simple values (numbers by value, strings by contents) and
// identity-based for other objects, matching §5.2's d!Name in e!Depts over
// string sets.
type Value struct {
	Kind ValueKind
	N    float64
	S    string
	B    bool
	O    oop.OOP // original OOP (for identity and set iteration)
}

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds.
const (
	VNil ValueKind = iota
	VBool
	VNum
	VStr
	VChar
	VObj
)

// Decode converts an OOP into a Value using the session to resolve boxed
// floats and byte objects. An object the session may not read is an error.
func Decode(s *core.Session, o oop.OOP) (Value, error) {
	switch {
	case o == oop.Nil || o == oop.Invalid:
		return Value{Kind: VNil, O: oop.Nil}, nil
	case o == oop.True:
		return Value{Kind: VBool, B: true, O: o}, nil
	case o == oop.False:
		return Value{Kind: VBool, B: false, O: o}, nil
	case o.IsSmallInt():
		return Value{Kind: VNum, N: float64(o.Int()), O: o}, nil
	case o.IsCharacter():
		return Value{Kind: VChar, S: string(o.Char()), O: o}, nil
	}
	cls, err := s.ClassOf(o)
	if err != nil {
		return Value{}, err
	}
	k := s.DB().Kernel()
	switch cls {
	case k.Float:
		f, err := s.FloatValue(o)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: VNum, N: f, O: o}, nil
	case k.String, k.Symbol:
		b, err := s.BytesOf(o)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: VStr, S: string(b), O: o}, nil
	}
	return Value{Kind: VObj, O: o}, nil
}

// Equal reports calculus equality of two values.
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case VNil:
		return true
	case VBool:
		return a.B == b.B
	case VNum:
		return a.N == b.N
	case VStr, VChar:
		return a.S == b.S
	default:
		return a.O == b.O // entity identity
	}
}

// Less orders two values; comparable kinds only.
func Less(a, b Value) (bool, error) {
	if a.Kind == VNum && b.Kind == VNum {
		return a.N < b.N, nil
	}
	if (a.Kind == VStr || a.Kind == VChar) && (b.Kind == VStr || b.Kind == VChar) {
		return a.S < b.S, nil
	}
	return false, fmt.Errorf("calculus: values %v and %v are not comparable", a.Kind, b.Kind)
}

// Truthy interprets a value as a predicate result.
func Truthy(v Value) bool { return v.Kind == VBool && v.B }

// Eval evaluates an expression under a binding. The session's globals serve
// as fallback roots for unbound path variables (X!Employees with X a
// global).
func Eval(s *core.Session, e Expr, env Env) (Value, error) {
	switch n := e.(type) {
	case Num:
		return Value{Kind: VNum, N: n.V}, nil
	case Str:
		return Value{Kind: VStr, S: n.V}, nil
	case Bool:
		return Value{Kind: VBool, B: n.V}, nil
	case Nil:
		return Value{Kind: VNil, O: oop.Nil}, nil
	case *Path:
		o, err := EvalPath(s, n, env)
		if err != nil {
			return Value{}, err
		}
		return Decode(s, o)
	case *Not:
		v, err := Eval(s, n.E, env)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: VBool, B: !Truthy(v)}, nil
	case *Binary:
		return evalBinary(s, n, env)
	}
	return Value{}, fmt.Errorf("calculus: unknown expression %T", e)
}

// EvalPath resolves a path expression to an OOP under a binding. A nil env
// behaves as an empty binding: only globals resolve.
func EvalPath(s *core.Session, p *Path, env Env) (oop.OOP, error) {
	var cur oop.OOP
	var ok bool
	if env != nil {
		cur, ok = env.LookupVar(p.Root)
	}
	if !ok {
		if g, found := s.Global(p.Root); found {
			cur = g
		} else {
			return oop.Invalid, fmt.Errorf("calculus: unbound variable %q", p.Root)
		}
	}
	for i := range p.Steps {
		st := &p.Steps[i]
		if !cur.IsHeap() {
			return oop.Invalid, fmt.Errorf("calculus: cannot traverse %q from a simple value in %s", st.Name, p)
		}
		var v oop.OOP
		var err error
		if st.HasAt {
			v, _, err = s.FetchAt(cur, st.elementName(s), oop.Time(st.At))
		} else {
			v, _, err = s.Fetch(cur, st.elementName(s))
		}
		if err != nil {
			return oop.Invalid, err
		}
		cur = v
	}
	return cur, nil
}

// elementName is the element the step reads: its index, or its name's
// symbol, interned once per parsed query and database, not once per tuple.
func (st *PathStep) elementName(s *core.Session) oop.OOP {
	if st.IsIndex {
		return oop.MustInt(st.Index)
	}
	if db := s.DB(); st.db != db {
		st.sym, st.db = s.Symbol(st.Name), db
	}
	return st.sym
}

func evalBinary(s *core.Session, n *Binary, env Env) (Value, error) {
	// Short-circuit logical operators.
	switch n.Op {
	case OpAnd:
		l, err := Eval(s, n.L, env)
		if err != nil {
			return Value{}, err
		}
		if !Truthy(l) {
			return Value{Kind: VBool, B: false}, nil
		}
		r, err := Eval(s, n.R, env)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: VBool, B: Truthy(r)}, nil
	case OpOr:
		l, err := Eval(s, n.L, env)
		if err != nil {
			return Value{}, err
		}
		if Truthy(l) {
			return Value{Kind: VBool, B: true}, nil
		}
		r, err := Eval(s, n.R, env)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: VBool, B: Truthy(r)}, nil
	}
	l, err := Eval(s, n.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := Eval(s, n.R, env)
	if err != nil {
		return Value{}, err
	}
	switch n.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
		if l.Kind != VNum || r.Kind != VNum {
			return Value{}, fmt.Errorf("calculus: arithmetic on non-numbers in %s", n)
		}
		var f float64
		switch n.Op {
		case OpAdd:
			f = l.N + r.N
		case OpSub:
			f = l.N - r.N
		case OpMul:
			f = l.N * r.N
		case OpDiv:
			if r.N == 0 {
				return Value{}, fmt.Errorf("calculus: division by zero in %s", n)
			}
			f = l.N / r.N
		}
		return Value{Kind: VNum, N: f}, nil
	case OpEq:
		return Value{Kind: VBool, B: Equal(l, r)}, nil
	case OpNe:
		return Value{Kind: VBool, B: !Equal(l, r)}, nil
	case OpLt, OpLe, OpGt, OpGe:
		lt, err := Less(l, r)
		if err != nil {
			return Value{}, err
		}
		gt, err := Less(r, l)
		if err != nil {
			return Value{}, err
		}
		var res bool
		switch n.Op {
		case OpLt:
			res = lt
		case OpLe:
			res = !gt
		case OpGt:
			res = gt
		case OpGe:
			res = !lt
		}
		return Value{Kind: VBool, B: res}, nil
	case OpIn:
		return evalIn(s, l, r)
	}
	return Value{}, fmt.Errorf("calculus: unsupported operator %s", n.Op)
}

// errStopIteration is a private cursor early-exit sentinel; it never
// escapes this package.
var errStopIteration = errors.New("calculus: stop iteration")

// evalIn tests structural membership of l in the set r, streaming the
// members through a cursor and stopping at the first match.
func evalIn(s *core.Session, l, r Value) (Value, error) {
	if r.Kind != VObj && r.Kind != VStr {
		return Value{}, fmt.Errorf("calculus: right side of 'in' is not a set")
	}
	found := false
	k := s.DB().Kernel()
	err := s.MembersFunc(r.O, func(m oop.OOP) error {
		// Fast path for string sets (§5.2's d!Name in e!Depts): compare the
		// member's bytes against l directly — string(b) == l.S compiles to
		// an allocation-free comparison — instead of decoding a Value.
		if l.Kind == VStr && m.IsHeap() {
			cls, err := s.ClassOf(m)
			if err != nil {
				return err
			}
			if cls == k.String || cls == k.Symbol {
				b, err := s.BytesOf(m)
				if err != nil {
					return err
				}
				if string(b) == l.S {
					found = true
					return errStopIteration
				}
				return nil
			}
		}
		v, err := Decode(s, m)
		if err != nil {
			return err
		}
		if Equal(l, v) {
			found = true
			return errStopIteration
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopIteration) {
		return Value{}, err
	}
	return Value{Kind: VBool, B: found}, nil
}
