package calculus

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const paperQuery = `{Emp: e, Mgr: m} where
 (e in X!Employees) and
 (d in X!Departments) [(m in d!Managers) and
 (d!Name in e!Depts) and (e!Salary > 0.10 * d!Budget)]`

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Target) != 2 || q.Target[0].Label != "Emp" || q.Target[0].Var != "e" || q.Target[1].Label != "Mgr" || q.Target[1].Var != "m" {
		t.Errorf("target = %+v", q.Target)
	}
	if len(q.Ranges) != 3 {
		t.Fatalf("ranges = %d, want 3", len(q.Ranges))
	}
	if q.Ranges[0].Var != "e" || q.Ranges[0].Source.String() != "X!Employees" {
		t.Errorf("range 0 = %v in %v", q.Ranges[0].Var, q.Ranges[0].Source)
	}
	if q.Ranges[1].Var != "d" || q.Ranges[2].Var != "m" {
		t.Errorf("ranges = %+v", q.Ranges)
	}
	// m ranges over a function of d — the paper's distinguishing feature.
	if q.Ranges[2].Source.String() != "d!Managers" {
		t.Errorf("dependent range source = %v", q.Ranges[2].Source)
	}
	conj := Conjuncts(q.Pred)
	if len(conj) != 2 {
		t.Fatalf("predicates = %d, want 2: %v", len(conj), q.Pred)
	}
	if conj[0].String() != "((d!Name) in (e!Depts))" && !strings.Contains(conj[0].String(), "in") {
		t.Errorf("pred 0 = %s", conj[0])
	}
	if !strings.Contains(conj[1].String(), "0.1") || !strings.Contains(conj[1].String(), "*") {
		t.Errorf("pred 1 = %s", conj[1])
	}
}

func TestParseSimpleForms(t *testing.T) {
	cases := []string{
		"{R: x} where (x in World!things)",
		"{R: x} where (x in World!things) and x!size > 3",
		"{R: x} where (x in World!things) and (x!a = 1 or x!b = 2)",
		"{R: x} where (x in World!things) and not x!flag = true",
		"{A: x, B: y} where (x in S!a) and (y in x!friends)",
		"{R: x} where (x in World!things) and x!name = 'it''s'",
		"{R: x} where (x in World!things) and x!when@5 = nil",
		"{R: x} where (x in World!things) and x!1 = 2",
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"{R x} where (x in S)",
		"{R: x} (x in S)",                     // missing where
		"{R: x} where (y in S)",               // target var unbound
		"{R: x} where (x in S) and",           // dangling and
		"{R: x} where (x in S) extra",         // trailing
		"{R: x} where (x in 'lit)",            // unterminated string
		"{R: x} where (x in S) and x! = 3",    // missing element name
		"{R: x} where (x in S) and x!a @ = 3", // missing time
		"{R: x} where (x in S) and x!a ? 3",   // bad char
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Nesting is bounded: maxNesting levels parse, one more is a parse error
// (not a stack overflow), for each construct that nests.
func TestParseNestingBound(t *testing.T) {
	const head = "{R: x} where (x in S) and "
	forms := map[string]func(n int) string{
		"parentheses": func(n int) string {
			return head + "x!a = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
		},
		"minus": func(n int) string { return head + "x!a = " + strings.Repeat("- ", n) + "1" },
		"not":   func(n int) string { return head + strings.Repeat("not ", n) + "x!a = 1" },
		"dependent ranges": func(n int) string {
			var b strings.Builder
			b.WriteString("{R: x} where (x in S)")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, " [ (v%d in x!a)", i)
			}
			return b.String() + strings.Repeat(" ]", n)
		},
	}
	for name, form := range forms {
		if _, err := Parse(form(maxNesting)); err != nil {
			t.Errorf("%s at the bound: %v", name, err)
		}
		_, err := Parse(form(maxNesting + 1))
		if err == nil || !strings.Contains(err.Error(), "nests deeper than 1000") {
			t.Errorf("%s past the bound: %v, want a nesting error", name, err)
		}
	}
}

func TestQueryStringReparses(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("not a fixpoint:\n%s\n%s", q.String(), q2.String())
	}
}

func TestConjunctsAndAnd(t *testing.T) {
	a, b, c := Bool{true}, Bool{false}, Num{1}
	e := And(And(a, b), c)
	if got := Conjuncts(e); len(got) != 3 {
		t.Errorf("Conjuncts = %d", len(got))
	}
	if And(nil, a) != Expr(a) || And(a, nil) != Expr(a) {
		t.Error("And nil handling")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil)")
	}
}

func TestValueEqual(t *testing.T) {
	if !Equal(Value{Kind: VNum, N: 3}, Value{Kind: VNum, N: 3}) {
		t.Error("num equality")
	}
	if Equal(Value{Kind: VNum, N: 3}, Value{Kind: VStr, S: "3"}) {
		t.Error("cross-kind equality")
	}
	if !Equal(Value{Kind: VStr, S: "a"}, Value{Kind: VStr, S: "a"}) {
		t.Error("string equality")
	}
	if !Equal(Value{Kind: VNil}, Value{Kind: VNil}) {
		t.Error("nil equality")
	}
}

func TestLess(t *testing.T) {
	if lt, err := Less(Value{Kind: VNum, N: 1}, Value{Kind: VNum, N: 2}); err != nil || !lt {
		t.Error("1 < 2")
	}
	if lt, err := Less(Value{Kind: VStr, S: "a"}, Value{Kind: VStr, S: "b"}); err != nil || !lt {
		t.Error("'a' < 'b'")
	}
	if _, err := Less(Value{Kind: VNum}, Value{Kind: VStr}); err == nil {
		t.Error("cross-kind comparison should error")
	}
}

func TestLexerNeverPanicsProperty(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFloatLiterals(t *testing.T) {
	q, err := Parse("{R: x} where (x in S!a) and x!v > 0.10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Pred.String(), "0.1") {
		t.Errorf("pred = %s", q.Pred)
	}
}
