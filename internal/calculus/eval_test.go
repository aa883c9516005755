package calculus

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/oop"
)

func evalSession(t *testing.T) *core.Session {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := db.NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustEval(t *testing.T, s *core.Session, e Expr, b Binding) Value {
	t.Helper()
	v, err := Eval(s, e, b)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestEvalLiterals(t *testing.T) {
	s := evalSession(t)
	if v := mustEval(t, s, Num{V: 3.5}, nil); v.Kind != VNum || v.N != 3.5 {
		t.Errorf("num = %+v", v)
	}
	if v := mustEval(t, s, Str{V: "hi"}, nil); v.Kind != VStr || v.S != "hi" {
		t.Errorf("str = %+v", v)
	}
	if v := mustEval(t, s, Bool{V: true}, nil); !Truthy(v) {
		t.Errorf("bool = %+v", v)
	}
	if v := mustEval(t, s, Nil{}, nil); v.Kind != VNil {
		t.Errorf("nil = %+v", v)
	}
}

func TestEvalArithmetic(t *testing.T) {
	s := evalSession(t)
	cases := []struct {
		op   Op
		l, r float64
		want float64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, -1},
		{OpMul, 2, 3, 6},
		{OpDiv, 7, 2, 3.5},
	}
	for _, c := range cases {
		v := mustEval(t, s, &Binary{Op: c.op, L: Num{V: c.l}, R: Num{V: c.r}}, nil)
		if v.Kind != VNum || v.N != c.want {
			t.Errorf("%v %s %v = %+v", c.l, c.op, c.r, v)
		}
	}
	// Errors: division by zero, non-numeric operands.
	if _, err := Eval(s, &Binary{Op: OpDiv, L: Num{V: 1}, R: Num{V: 0}}, nil); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := Eval(s, &Binary{Op: OpAdd, L: Str{V: "x"}, R: Num{V: 1}}, nil); err == nil {
		t.Error("string arithmetic accepted")
	}
}

func TestEvalComparisons(t *testing.T) {
	s := evalSession(t)
	tests := []struct {
		op   Op
		want bool
	}{
		{OpLt, true}, {OpLe, true}, {OpGt, false}, {OpGe, false},
		{OpEq, false}, {OpNe, true},
	}
	for _, c := range tests {
		v := mustEval(t, s, &Binary{Op: c.op, L: Num{V: 1}, R: Num{V: 2}}, nil)
		if Truthy(v) != c.want {
			t.Errorf("1 %s 2 = %v", c.op, v)
		}
	}
	// String comparison.
	v := mustEval(t, s, &Binary{Op: OpLt, L: Str{V: "a"}, R: Str{V: "b"}}, nil)
	if !Truthy(v) {
		t.Error("'a' < 'b' false")
	}
	// Cross-kind comparison errors.
	if _, err := Eval(s, &Binary{Op: OpLt, L: Num{V: 1}, R: Str{V: "b"}}, nil); err == nil {
		t.Error("cross-kind < accepted")
	}
}

func TestEvalLogic(t *testing.T) {
	s := evalSession(t)
	and := func(l, r Expr) Expr { return &Binary{Op: OpAnd, L: l, R: r} }
	or := func(l, r Expr) Expr { return &Binary{Op: OpOr, L: l, R: r} }
	if Truthy(mustEval(t, s, and(Bool{true}, Bool{false}), nil)) {
		t.Error("true and false")
	}
	if !Truthy(mustEval(t, s, or(Bool{false}, Bool{true}), nil)) {
		t.Error("false or true")
	}
	if Truthy(mustEval(t, s, &Not{E: Bool{true}}, nil)) {
		t.Error("not true")
	}
	// Short-circuit: the right side would error but is never evaluated.
	bad := &Binary{Op: OpDiv, L: Num{V: 1}, R: Num{V: 0}}
	if Truthy(mustEval(t, s, and(Bool{false}, bad), nil)) {
		t.Error("short-circuit and")
	}
	if !Truthy(mustEval(t, s, or(Bool{true}, bad), nil)) {
		t.Error("short-circuit or")
	}
}

func TestEvalPathsAndBindings(t *testing.T) {
	s := evalSession(t)
	k := s.DB().Kernel()
	d, _ := s.NewObject(k.Dictionary)
	_ = s.Store(d, s.Symbol("Budget"), oop.MustInt(142000))
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("dept"), d)

	// Bound variable root.
	v := mustEval(t, s, &Path{Root: "d", Steps: []PathStep{{Name: "Budget"}}}, Binding{"d": d})
	if v.Kind != VNum || v.N != 142000 {
		t.Errorf("d!Budget = %+v", v)
	}
	// Global fallback root.
	v = mustEval(t, s, &Path{Root: "dept", Steps: []PathStep{{Name: "Budget"}}}, nil)
	if v.N != 142000 {
		t.Errorf("dept!Budget = %+v", v)
	}
	// Unbound root errors.
	if _, err := Eval(s, &Path{Root: "nowhere"}, nil); err == nil {
		t.Error("unbound root accepted")
	}
	// Traversal through a simple value errors.
	if _, err := Eval(s, &Path{Root: "d", Steps: []PathStep{{Name: "Budget"}, {Name: "x"}}}, Binding{"d": d}); err == nil {
		t.Error("traversal through number accepted")
	}
	// Temporal step.
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = s.Store(d, s.Symbol("Budget"), oop.MustInt(9))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	v = mustEval(t, s, &Path{Root: "d", Steps: []PathStep{{Name: "Budget", HasAt: true, At: 1}}}, Binding{"d": d})
	if v.N != 142000 {
		t.Errorf("d!Budget@1 = %+v", v)
	}
}

func TestEvalIn(t *testing.T) {
	s := evalSession(t)
	k := s.DB().Kernel()
	set, _ := s.NewObject(k.Set)
	str, _ := s.NewString("Sales")
	_, _ = s.AddToSet(set, str)
	_, _ = s.AddToSet(set, oop.MustInt(7))
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("depts"), set)

	in := func(l Expr) Value {
		return mustEval(t, s, &Binary{Op: OpIn, L: l, R: &Path{Root: "depts"}}, nil)
	}
	if !Truthy(in(Str{V: "Sales"})) {
		t.Error("'Sales' in depts — structural string equality")
	}
	if !Truthy(in(Num{V: 7})) {
		t.Error("7 in depts")
	}
	if Truthy(in(Str{V: "Planning"})) {
		t.Error("'Planning' in depts")
	}
	// Membership in a non-set errors.
	if _, err := Eval(s, &Binary{Op: OpIn, L: Num{V: 1}, R: Num{V: 2}}, nil); err == nil {
		t.Error("in over number accepted")
	}
}

func TestDecodeKinds(t *testing.T) {
	s := evalSession(t)
	k := s.DB().Kernel()
	f, _ := s.NewFloat(2.5)
	str, _ := s.NewString("hi")
	obj, _ := s.NewObject(k.Object)
	cases := []struct {
		v    oop.OOP
		kind ValueKind
	}{
		{oop.Nil, VNil},
		{oop.True, VBool},
		{oop.MustInt(3), VNum},
		{oop.FromChar('x'), VChar},
		{f, VNum},
		{str, VStr},
		{s.Symbol("sym"), VStr},
		{obj, VObj},
	}
	decode := func(o oop.OOP) Value {
		t.Helper()
		v, err := Decode(s, o)
		if err != nil {
			t.Fatalf("Decode(%v): %v", o, err)
		}
		return v
	}
	for _, c := range cases {
		if got := decode(c.v); got.Kind != c.kind {
			t.Errorf("Decode(%v).Kind = %v, want %v", c.v, got.Kind, c.kind)
		}
	}
	// Identity semantics for objects.
	if !Equal(decode(obj), decode(obj)) {
		t.Error("object not equal to itself")
	}
	obj2, _ := s.NewObject(k.Object)
	if Equal(decode(obj), decode(obj2)) {
		t.Error("distinct objects equal")
	}
}

func TestBindingClone(t *testing.T) {
	b := Binding{"x": oop.MustInt(1)}
	c := b.Clone()
	c["y"] = oop.MustInt(2)
	if _, ok := b["y"]; ok {
		t.Error("clone aliased original")
	}
	if c["x"] != oop.MustInt(1) {
		t.Error("clone lost binding")
	}
}
