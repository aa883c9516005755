package opal

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/oop"
)

func newInterp(t testing.TB) *Interp {
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
	in, err := NewInterp(s)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// evalCases runs each row's source and compares its printString with the
// row's second text. A second text "error: <msg>" instead expects the source
// to fail with an error containing <msg>.
func evalCases(t *testing.T, in *Interp, cases [][2]string) {
	t.Helper()
	for _, c := range cases {
		got, err := in.ExecuteToString(c[0])
		if want, ok := strings.CutPrefix(c[1], "error: "); ok {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%q = %q (%v), want error containing %q", c[0], got, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c[0], err)
			continue
		}
		if got != c[1] {
			t.Errorf("%q = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestLiteralsAndArithmetic(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"3 + 4", "7"},
		{"3 - 4", "-1"},
		{"6 * 7", "42"},
		{"7 // 2", "3"},
		{"-7 // 2", "-4"},
		{"7 \\\\ 2", "1"},
		{"10 / 2", "5"},
		{"7 / 2", "3.5"},
		{"3.5 + 1", "4.5"},
		{"2 < 3", "true"},
		{"3 <= 3", "true"},
		{"4 > 5", "false"},
		{"3 = 3", "true"},
		{"3 ~= 4", "true"},
		{"3 max: 7", "7"},
		{"3 min: 7", "3"},
		{"5 between: 1 and: 10", "true"},
		{"(-3) abs", "3"},
		{"4 squared", "16"},
		{"9 sqrt", "3.0"},
		{"4 even", "true"},
		{"3 odd", "true"},
		{"1000000 * 1000000", "1000000000000"},
		{"'abc'", "'abc'"},
		{"#foo", "#foo"},
		{"$a", "$a"},
		{"true", "true"},
		{"nil", "nil"},
		{"nil isNil", "true"},
		{"3 isNil", "false"},
		{"2 + 3 * 4", "20"}, // Smalltalk left-to-right binary precedence
	})
}

func TestStrings(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"'abc' , 'def'", "'abcdef'"},
		{"'hello' size", "5"},
		{"'hello' at: 1", "$h"},
		{"'abc' asSymbol", "#abc"},
		{"#abc asString", "'abc'"},
		{"'abc' asUppercase", "'ABC'"},
		{"'Hello World' includesString: 'World'", "true"},
		{"'abc' < 'abd'", "true"},
		{"'abc' = 'abc'", "true"},
		{"'it''s'", "'it''s'"},
		{"'hello' copyFrom: 2 to: 4", "'ell'"},
		{"'hello' isEmpty", "false"},
		{"'' isEmpty", "true"},
	})
}

func TestVariablesAndAssignment(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| x | x := 5. x * 2", "10"},
		{"| x y | x := 3. y := x + 1. x + y", "7"},
		{"| x | x := 1. x := x + 1. x := x + 1. x", "3"},
		// More temps than a one-byte slot number can tell apart.
		{manyTemps(257), "1"},
	})
}

// manyTemps declares n temps, sets the first and the last, and answers the
// first.
func manyTemps(n int) string {
	var b strings.Builder
	b.WriteString("|")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " t%d", i)
	}
	fmt.Fprintf(&b, " | t0 := 1. t%d := 2. t0", n-1)
	return b.String()
}

func TestControlFlow(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"3 > 2 ifTrue: ['yes'] ifFalse: ['no']", "'yes'"},
		{"3 < 2 ifTrue: ['yes'] ifFalse: ['no']", "'no'"},
		{"3 > 2 ifTrue: [99]", "99"},
		{"3 < 2 ifTrue: [99]", "nil"},
		{"(3 > 2) and: [4 > 3]", "true"},
		{"(3 > 2) and: [4 < 3]", "false"},
		{"(3 < 2) or: [4 > 3]", "true"},
		{"true & false", "false"},
		{"true | false", "true"},
		{"false not", "true"},
		{"| i | i := 0. [i < 5] whileTrue: [i := i + 1]. i", "5"},
		{"| s | s := 0. 1 to: 5 do: [:i | s := s + i]. s", "15"},
		{"| s | s := 0. 3 timesRepeat: [s := s + 10]. s", "30"},
		{"| i | i := 10. [i > 20] whileFalse: [i := i + 3]. i", "22"},
		// A loop body longer than a 16-bit jump can cross.
		{"| s | s := 0. 1 to: 1 do: [:i | " + strings.Repeat("s := s + 1. ", 3000) + "nil]. s", "3000"},
	})
}

// TestEveryLoopShapeHonoursDeadline: every loop form, inlined or run by a
// primitive, polls the request context, so a loop that sends nothing still
// stops at its deadline.
func TestEveryLoopShapeHonoursDeadline(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"[true] whileTrue",
		"[true] whileTrue: [nil]",
		"[false] whileFalse",
		"| c | c := [true]. c whileTrue: [nil]",
		"1000000000 timesRepeat: [nil]",
		"1 to: 1000000000 do: [:i | nil]",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		in.Session().SetContext(ctx)
		start := time.Now()
		_, err := in.Execute(src)
		took := time.Since(start)
		in.Session().SetContext(nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%q: err = %v, want the deadline", src, err)
		}
		if took > time.Second {
			t.Errorf("%q ran %v under a 20 ms deadline", src, took)
		}
	}
}

func TestBlocks(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"[3 + 4] value", "7"},
		{"[:x | x * 2] value: 21", "42"},
		{"[:a :b | a + b] value: 1 value: 2", "3"},
		{"| b | b := [:x | x + 1]. b value: (b value: 5)", "7"},
		{"[:x | x] numArgs", "1"},
		// Closure over enclosing temps.
		{"| n add | n := 10. add := [:x | x + n]. n := 20. add value: 1", "21"},
		// Block held in a variable: whileTrue: via primitive.
		{"| i c | i := 0. c := [i < 3]. c whileTrue: [i := i + 1]. i", "3"},
	})
}

func TestClassDefinitionAndMethods(t *testing.T) {
	in := newInterp(t)
	src := `Object subclass: 'Employee' instVarNames: #('name' 'salary' 'depts')`
	if _, err := in.Execute(src); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{
		"name ^name",
		"name: aString name := aString",
		"salary ^salary",
		"salary: aNumber salary := aNumber",
		"raise: amount salary := salary + amount. ^salary",
	} {
		if _, err := in.Execute("Employee compile: '" + strings.ReplaceAll(m, "'", "''") + "'"); err != nil {
			t.Fatalf("compile %q: %v", m, err)
		}
	}
	evalCases(t, in, [][2]string{
		{"| e | e := Employee new. e name: 'Ellen'. e name", "'Ellen'"},
		{"| e | e := Employee new. e salary: 100. e raise: 50. e salary", "150"},
		{"Employee new printString", "'an Employee'"},
		{"Employee name", "#Employee"},
		{"Employee superclass name", "#Object"},
		{"(Employee new) class name", "#Employee"},
		{"Employee new isKindOf: Object", "true"},
		{"3 isKindOf: Number", "true"},
		{"3 isMemberOf: Number", "false"},
		{"(Employee new respondsTo: #raise:)", "true"},
		{"(Employee new respondsTo: #fire)", "false"},
	})
}

func TestInheritanceAndSuper(t *testing.T) {
	in := newInterp(t)
	setup := []string{
		`Object subclass: 'Employee' instVarNames: #('name' 'salary')`,
		`Employee compile: 'describe ^''employee'''`,
		`Employee compile: 'title ^''worker'''`,
		// Paper §4.1: "A subclass Manager of class Employee could define
		// additional structure ... and additional messages".
		`Employee subclass: 'Manager' instVarNames: #('department')`,
		`Manager compile: 'describe ^super describe , '' (manager)'''`,
		`Manager compile: 'department: d department := d'`,
		`Manager compile: 'department ^department'`,
	}
	for _, s := range setup {
		if _, err := in.Execute(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	evalCases(t, in, [][2]string{
		{"Manager new describe", "'employee (manager)'"},
		{"Manager new title", "'worker'"}, // inherited
		{"Manager superclass name", "#Employee"},
		{"| m | m := Manager new. m department: 'Sales'. m department", "'Sales'"},
		// Managers are employees.
		{"Manager new isKindOf: Employee", "true"},
		{"Employee new isKindOf: Manager", "false"},
	})
}

func TestNonLocalReturn(t *testing.T) {
	in := newInterp(t)
	setup := []string{
		`Object subclass: 'Finder' instVarNames: #()`,
		`Finder compile: 'firstOver: n in: aColl aColl do: [:e | e > n ifTrue: [^e]]. ^nil'`,
	}
	for _, s := range setup {
		if _, err := in.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	evalCases(t, in, [][2]string{
		{"| c | c := OrderedCollection new. c add: 1; add: 5; add: 9. Finder new firstOver: 3 in: c", "5"},
		{"| c | c := OrderedCollection new. c add: 1. Finder new firstOver: 3 in: c", "nil"},
	})
}

// TestBlockReturnToDeadHomeFails: a block's ^ whose home method has already
// returned fails the request (Smalltalk-80's cannotReturn:) instead of
// panicking out of Execute.
func TestBlockReturnToDeadHomeFails(t *testing.T) {
	in := newInterp(t)
	for _, s := range []string{
		`Object subclass: 'Esc' instVarNames: #()`,
		`Esc compile: 'blk ^[:x | ^x]'`,
	} {
		if _, err := in.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	_, err := in.Execute("(Esc new blk) value: 7")
	if err == nil || !strings.Contains(err.Error(), "home method has returned") {
		t.Errorf("^ to a returned home: %v", err)
	}
	// The session survives, and a live home still takes the return.
	evalCases(t, in, [][2]string{{"([:x | ^x] value: 7) + 1", "7"}})
}

func TestCollections(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"#(1 2 3)", "an Array( 1 2 3 )"},
		{"#(1 2 3) size", "3"},
		{"#(10 20 30) at: 2", "20"},
		{"| a | a := Array new: 3. a at: 1 put: 9. a", "an Array( 9 nil nil )"},
		{"#(1 2 3) first", "1"},
		{"#(1 2 3) last", "3"},
		{"| c | c := OrderedCollection new. c add: 5. c add: 6. c size", "2"},
		{"| c | c := OrderedCollection new. c add: 5; add: 6; add: 7. c removeLast. c size", "2"},
		{"(#(1 2 3 4) select: [:x | x even])", "an OrderedCollection( 2 4 )"},
		{"(#(1 2 3) collect: [:x | x * x])", "an OrderedCollection( 1 4 9 )"},
		{"(#(1 2 3 4) reject: [:x | x even])", "an OrderedCollection( 1 3 )"},
		{"#(1 2 3 4) detect: [:x | x > 2]", "3"},
		{"#(1 2 3) detect: [:x | x > 9] ifNone: [0]", "0"},
		{"#(1 2 3 4) inject: 0 into: [:a :b | a + b]", "10"},
		{"#(1 2 3) includes: 2", "true"},
		{"#(1 2 3) includes: 9", "false"},
		{"#(1 2 3) isEmpty", "false"},
		{"#(1 2 3 4) count: [:x | x odd]", "2"},
		{"#(1 2 3) sum", "6"},
		{"#(3 9 2) maxValue", "9"},
		{"#(1 2 3) anySatisfy: [:x | x = 2]", "true"},
		{"#(1 2 3) allSatisfy: [:x | x > 0]", "true"},
		{"#(1 2 3) allSatisfy: [:x | x > 1]", "false"},
		{"#($a $b) at: 1", "$a"},
		{"#(#x 'y' 2.5)", "an Array( #x 'y' 2.5 )"},
		{"#(foo bar)", "an Array( #foo #bar )"}, // bare idents are symbols
	})
}

func TestSetsAndBags(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| s | s := Set new. s add: 3. s add: 3. s size", "1"},
		{"| s | s := Bag new. s add: 3. s add: 3. s size", "2"},
		{"| s | s := Set new. s add: 1; add: 2. s includes: 2", "true"},
		{"| s | s := Set new. s add: 1; add: 2. s remove: 1. s size", "1"},
		{"| s | s := Set new. s add: 'a'; add: 'b'. (s collect: [:x | x asUppercase]) size", "2"},
		{"| s t | s := Set new. s add: 1; add: 2; add: 3. t := 0. s do: [:e | t := t + e]. t", "6"},
	})
}

func TestDictionary(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| d | d := Dictionary new. d at: #x put: 5. d at: #x", "5"},
		{"| d | d := Dictionary new. d at: 'name' put: 'Ellen'. d at: 'name'", "'Ellen'"},
		{"| d | d := Dictionary new. d at: 3 put: 'three'. d at: 3", "'three'"},
		{"| d | d := Dictionary new. d at: #x put: 1. d includesKey: #x", "true"},
		{"| d | d := Dictionary new. d includesKey: #x", "false"},
		{"| d | d := Dictionary new. d at: #x ifAbsent: [42]", "42"},
		{"| d | d := Dictionary new. d at: #x put: 1. d at: #x ifAbsent: [42]", "1"},
		{"| d | d := Dictionary new. d at: #x put: 1. d removeKey: #x. d includesKey: #x", "false"},
		{"| d | d := Dictionary new. d at: #a put: 1; at: #b put: 2. d size", "2"},
		// Object keys via associations.
		{"| d k | d := Dictionary new. k := Object new. d at: k put: 'v'. d at: k", "'v'"},
		{"| d s | d := Dictionary new. d at: #a put: 1; at: #b put: 2. s := 0. d keysAndValuesDo: [:k :v | s := s + v]. s", "3"},
		{"(3 -> 4) key", "3"},
		{"(3 -> 4) value", "4"},
		{"(3 -> 4) printString", "'3->4'"},
	})
}

func TestPathExpressions(t *testing.T) {
	in := newInterp(t)
	// Build the §5.1 fragment through OPAL itself.
	setup := `| acme depts sales |
		acme := Dictionary new.
		World at: 'Acme' put: acme.
		depts := Dictionary new.
		acme at: 'Departments' put: depts.
		sales := Dictionary new.
		sales at: 'Name' put: 'Sales'.
		sales at: 'Budget' put: 142000.
		depts at: 'A12' put: sales`
	if _, err := in.Execute(setup); err != nil {
		t.Fatal(err)
	}
	evalCases(t, in, [][2]string{
		{"World!Acme!Departments!A12!Name", "'Sales'"},
		{"World!Acme!Departments!A12!Budget", "142000"},
		{"World!'Acme'!'Departments'!'A12'!'Budget'", "142000"},
		// Path assignment (§4.3: circumventing the class protocol).
		{"World!Acme!Departments!A12!Budget := 150000. World!Acme!Departments!A12!Budget", "150000"},
		// Paths from temps.
		{"| d | d := World!Acme!Departments. d!A12!Name", "'Sales'"},
		// Missing element reads as nil.
		{"World!Acme!Nonexistent", "nil"},
	})
}

func TestTemporalOPAL(t *testing.T) {
	in := newInterp(t)
	if _, err := in.Execute(`| acme | acme := Dictionary new. World at: 'Acme' put: acme. acme at: 'president' put: 'Ayn'. System commitTransaction`); err != nil {
		t.Fatal(err)
	}
	t1 := in.s.DB().TxnManager().LastCommitted()
	if _, err := in.Execute(`World!Acme!president := 'Milton'. System commitTransaction`); err != nil {
		t.Fatal(err)
	}
	evalCases(t, in, [][2]string{
		{"World!Acme!president", "'Milton'"},
		{"World!Acme!president@" + itoa(int64(t1)), "'Ayn'"},
		// Dynamic time via parenthesized expression.
		{"World!Acme!president@(" + itoa(int64(t1)) + " + 1)", "'Milton'"},
		// at:atTime: protocol form.
		{"(World at: #Acme) at: #president atTime: " + itoa(int64(t1)), "'Ayn'"},
	})
	// Time dial through System.
	evalCases(t, in, [][2]string{
		{"System timeDial: " + itoa(int64(t1)) + ". World!Acme!president", "'Ayn'"},
		{"System timeDialNow. World!Acme!president", "'Milton'"},
		{"System timeDial", "nil"},
	})
}

// A read at T sees committed state at T only: the session's pending writes
// are invisible through @T, at:atTime:, the dial and a dialled scan, a time
// after the last commit fails, and history stops at the snapshot. A
// transient, which has no committed past, reads its own values under a dial.
func TestReadAtTimeSeesCommittedState(t *testing.T) {
	in := newInterp(t)
	if _, err := in.Execute("World at: #o put: (Object new at: #v put: 1; yourself). World at: #s put: (Set new add: 1; yourself). System commitTransaction"); err != nil {
		t.Fatal(err)
	}
	t1 := itoa(int64(in.s.DB().TxnManager().LastCommitted()))
	if _, err := in.Execute("World!o at: #v put: 2. System commitTransaction"); err != nil {
		t.Fatal(err)
	}
	// Another session commits after this transaction's snapshot.
	other, err := in.s.DB().NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	o, ok := other.Global("o")
	if !ok {
		t.Fatal("World!o missing")
	}
	if err := other.Store(o, other.Symbol("v"), oop.MustInt(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	evalCases(t, in, [][2]string{
		{"World!o!v", "2"},
		{"(World!o historyOf: #v) size", "2"},
		{"(World!o historyOf: #v) last value", "2"},
	})
	if _, err := in.Execute("World!o at: #v put: 3. World!s add: 2"); err != nil {
		t.Fatal(err)
	}
	evalCases(t, in, [][2]string{
		{"World!o!v", "3"},
		{"World!s size", "2"},
		{"World!o!v@" + t1, "1"},
		{"World!o at: #v atTime: " + t1, "1"},
		{"| r | System timeDial: " + t1 + ". r := World!o!v. System timeDialNow. r", "1"},
		{"| r | System timeDial: " + t1 + ". r := World!s size. System timeDialNow. r", "1"},
		{"World!o!v@(0 - 1)", "error: non-negative"},
		{"World!o at: #v atTime: -1", "error: non-negative"},
		{"World!o!v@1000000", "error: is in the future"},
		// An object first stored by this transaction has no committed past.
		{"| n | n := Object new. World at: #n put: n. n at: #v put: 1. (n at: #v atTime: " + t1 + ") printString , '/' , (n!v) printString", "'nil/1'"},
		{"| r o s | System timeDial: " + t1 + ". o := Object new. o at: #v put: 6. s := Set new. s add: 4; add: 5. r := (s size) printString , '/' , (o!v) printString , '/' , (o at: #v) printString. System timeDialNow. r", "'2/6/6'"},
	})
}

func itoa(v int64) string {
	return strings.TrimSpace(strings.Replace(strings.Repeat("", 0)+fmtInt(v), "\n", "", -1))
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestTransactionsOPAL(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"World at: #ctr put: 1. System commitTransaction", "true"},
		{"World!ctr", "1"},
		{"World at: #ctr put: 2. System abortTransaction. World!ctr", "1"},
		{"System time > 0", "true"},
		{"System safeTime = System time", "true"},
		{"System user", "'SystemUser'"},
	})
}

func TestQueryOPAL(t *testing.T) {
	in := newInterp(t)
	setup := `| emps e |
		emps := Dictionary new.
		World at: 'Employees' put: emps.
		e := Dictionary new. e at: 'Name' put: 'Burns'. e at: 'Salary' put: 24650. emps at: 'E62' put: e.
		e := Dictionary new. e at: 'Name' put: 'Peters'. e at: 'Salary' put: 24000. emps at: 'E83' put: e.
		System commitTransaction`
	if _, err := in.Execute(setup); err != nil {
		t.Fatal(err)
	}
	out, err := in.ExecuteToString(`| rows | rows := System query: '{E: e} where (e in World!Employees) and e!Salary > 24500'. rows size`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1" {
		t.Errorf("query rows = %s", out)
	}
	out, err = in.ExecuteToString(`((System query: '{E: e} where (e in World!Employees) and e!Salary > 24500') at: 1) at: #E`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Burns") {
		t.Errorf("query row = %s", out)
	}
	// Explain shows a plan.
	out, err = in.ExecuteToString(`System explain: '{E: e} where (e in World!Employees) and e!Salary > 24500'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scan") {
		t.Errorf("explain = %s", out)
	}
}

func TestTranscript(t *testing.T) {
	in := newInterp(t)
	if _, err := in.Execute("Transcript show: 'Hello'; cr; show: 'World'"); err != nil {
		t.Fatal(err)
	}
	if got := in.TakeOutput(); got != "Hello\nWorld" {
		t.Errorf("transcript = %q", got)
	}
	if _, err := in.Execute("42 printNl"); err != nil {
		t.Fatal(err)
	}
	if got := in.TakeOutput(); got != "42\n" {
		t.Errorf("printNl = %q", got)
	}
}

func TestCascades(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| c | c := OrderedCollection new. c add: 1; add: 2; add: 3. c size", "3"},
		{"| c | c := OrderedCollection new. c add: 1; add: 2; yourself", "an OrderedCollection( 1 2 )"},
	})
}

func TestUserPrintString(t *testing.T) {
	in := newInterp(t)
	setup := []string{
		`Object subclass: 'Point2' instVarNames: #('x' 'y')`,
		`Point2 compile: 'x: ax y: ay x := ax. y := ay'`,
		`Point2 compile: 'printString ^x printString , ''@'' , y printString'`,
	}
	for _, s := range setup {
		if _, err := in.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	evalCases(t, in, [][2]string{
		{"| p | p := Point2 new. p x: 3 y: 4. p printString", "'3@4'"},
		// Nested in a collection, the override is used too.
		{"| p c | p := Point2 new. p x: 1 y: 2. c := OrderedCollection new. c add: p. c printString", "'an OrderedCollection( 1@2 )'"},
	})
}

func TestErrorsSurface(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"3 fooBar",           // doesNotUnderstand
		"3 + 'x'",            // type error
		"1/0",                // division by zero
		"#(1 2) at: 5",       // bounds
		"| x | y := 3",       // undeclared assignment target (compile error)
		"nil foo",            // DNU on nil
		"[:x | x] value",     // wrong arity
		"'abc' at: 0",        // string bounds
		"undefinedGlobal",    // unknown name
		"Object subclass: 3", // bad class name
		"self error: 'boom'", // explicit error
	} {
		if _, err := in.Execute(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestDoesNotUnderstandMessage(t *testing.T) {
	in := newInterp(t)
	_, err := in.Execute("3 fooBar")
	if err == nil || !strings.Contains(err.Error(), "doesNotUnderstand") {
		t.Errorf("err = %v", err)
	}
}

func TestMethodRedefinition(t *testing.T) {
	in := newInterp(t)
	for _, s := range []string{
		`Object subclass: 'Thing' instVarNames: #()`,
		`Thing compile: 'answer ^1'`,
	} {
		if _, err := in.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	evalCases(t, in, [][2]string{{"Thing new answer", "1"}})
	if _, err := in.Execute(`Thing compile: 'answer ^2'`); err != nil {
		t.Fatal(err)
	}
	evalCases(t, in, [][2]string{{"Thing new answer", "2"}})
	if _, err := in.Execute(`Thing removeSelector: #answer`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("Thing new answer"); err == nil {
		t.Error("removed selector still dispatches")
	}
}

func TestClassesPersistAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.NewSession(auth.SystemUser, "swordfish")
	in, err := NewInterp(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`Object subclass: 'Gadget' instVarNames: #('serial')`,
		`Gadget compile: 'serial: s serial := s'`,
		`Gadget compile: 'serial ^serial'`,
		`| g | g := Gadget new. g serial: 77. World at: #g put: g`,
		`System commitTransaction`,
	} {
		if _, err := in.Execute(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	db.Close()

	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, _ := db2.NewSession(auth.SystemUser, "swordfish")
	in2, err := NewInterp(s2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := in2.ExecuteToString("World!g serial")
	if err != nil {
		t.Fatal(err)
	}
	if out != "77" {
		t.Errorf("persisted method dispatch = %s", out)
	}
	// Methods compiled in the old session still work (source persisted).
	out, err = in2.ExecuteToString("Gadget new serial: 5; serial")
	if err != nil {
		t.Fatal(err)
	}
	if out != "5" {
		t.Errorf("= %s", out)
	}
}

func TestIndexOnOPAL(t *testing.T) {
	in := newInterp(t)
	setup := `| emps e |
		emps := Set new.
		World at: #emps put: emps.
		1 to: 20 do: [:i |
			e := Dictionary new.
			e at: #salary put: i * 100.
			emps add: e].
		System commitTransaction`
	if _, err := in.Execute(setup); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("World!emps indexOn: 'salary'"); err != nil {
		t.Fatal(err)
	}
	out, err := in.ExecuteToString(`System explain: '{E: e} where (e in World!emps) and e!salary = 500'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index-scan") {
		t.Errorf("plan after indexOn: = %s", out)
	}
	out, err = in.ExecuteToString(`(System query: '{E: e} where (e in World!emps) and e!salary = 500') size`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1" {
		t.Errorf("indexed query rows = %s", out)
	}
}

func TestIdentityVsEquality(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		// §4.2: identity vs structural equivalence.
		{"'abc' = 'abc'", "true"},   // equal contents
		{"'abc' == 'abc'", "false"}, // distinct objects
		{"#abc == #abc", "true"},    // symbols are interned
		{"3 = 3.0", "true"},
		{"| a b | a := Object new. b := Object new. a = b", "false"},
		{"| a | a := Object new. a = a", "true"},
		{"| a b | a := Object new. b := a. a == b", "true"},
	})
}

func TestObjectElementProtocol(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		// Raw labeled-set protocol on any object (GSDM view).
		{"| o | o := Object new. o at: #color put: 'red'. o at: #color", "'red'"},
		{"| o | o := Object new. o at: #a put: 1. o at: #b put: 2. o elementNames size", "2"},
		{"| o | o := Object new. o at: #a put: 1. o removeElement: #a. o at: #a", "nil"},
		// Optional instance variables (§4.3): instances differ in structure.
		{"| a b | a := Object new. b := Object new. a at: #extra put: 9. b elementNames size", "0"},
	})
}

func TestCopy(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| o c | o := Object new. o at: #v put: 1. c := o copy. c at: #v put: 2. o at: #v", "1"},
		{"| o c | o := Object new. c := o copy. o == c", "false"},
		{"'abc' copy", "'abc'"},
		{"3 copy", "3"},
	})
}

func TestDeepExpressionNesting(t *testing.T) {
	in := newInterp(t)
	// Nesting is bounded like calls: at maxNesting levels a doIt runs, one
	// level more is a parse error, not a stack overflow. The statement is
	// the first level; each parenthesis or literal-array level adds one.
	parens := func(n int) string { return strings.Repeat("(", n) + "7" + strings.Repeat(")", n) }
	array := func(n int) string { return "#" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + " size" }
	evalCases(t, in, [][2]string{
		{"((1 + 2) * (3 + 4)) - ((2 * 2) + 1)", "16"},
		{"#(#(1 2) #(3 4))", "an Array( an Array( 1 2 ) an Array( 3 4 ) )"},
		{"(#(1 2 3) collect: [:x | #(1 2 3) inject: x into: [:a :b | a + b]]) sum", "24"},
		{parens(maxNesting - 1), "7"},
		{parens(maxNesting), "error: expressions nest deeper than 1000"},
		{array(maxNesting - 1), "1"},
		{array(maxNesting), "error: expressions nest deeper than 1000"},
	})
}

func TestRecursionViaMethods(t *testing.T) {
	in := newInterp(t)
	for _, s := range []string{
		`Object subclass: 'MathHelper' instVarNames: #()`,
		`MathHelper compile: 'fact: n n <= 1 ifTrue: [^1]. ^n * (self fact: n - 1)'`,
		`MathHelper compile: 'fib: n n < 2 ifTrue: [^n]. ^(self fib: n - 1) + (self fib: n - 2)'`,
	} {
		if _, err := in.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	evalCases(t, in, [][2]string{
		{"MathHelper new fact: 10", "3628800"},
		{"MathHelper new fib: 15", "610"},
	})
	// Unbounded recursion hits the depth limit, not a Go stack overflow.
	if _, err := in.Execute(`MathHelper compile: 'loop ^self loop'`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("MathHelper new loop"); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("infinite recursion: %v", err)
	}
}

func TestElementNameTyping(t *testing.T) {
	// The §5.4 future-work extension: typed element names.
	in := newInterp(t)
	for _, s := range []string{
		`Object subclass: 'TypedEmployee' instVarNames: #('name' 'salary')`,
		`TypedEmployee compile: 'salary: s salary := s'`,
		`TypedEmployee constrain: #salary to: Number`,
		`TypedEmployee constrain: #name to: String`,
	} {
		if _, err := in.Execute(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	evalCases(t, in, [][2]string{
		// Conforming stores work through every protocol.
		{"| e | e := TypedEmployee new. e salary: 100. e!salary", "100"},
		{"| e | e := TypedEmployee new. e at: #salary put: 3.5. e!salary", "3.5"},
		{"| e | e := TypedEmployee new. e!salary := 7. e!salary", "7"},
		{"| e | e := TypedEmployee new. e at: #name put: 'Ada'. e!name", "'Ada'"},
		// nil is always storable (optional elements).
		{"| e | e := TypedEmployee new. e at: #salary put: nil. e!salary", "nil"},
		// Unconstrained elements stay heterogeneous.
		{"| e | e := TypedEmployee new. e at: #extra put: 'anything'. e!extra", "'anything'"},
		// Introspection.
		{"(TypedEmployee constraintOn: #salary) name", "#Number"},
		{"TypedEmployee constraintOn: #unconstrained", "nil"},
	})
	// Violations fail through every protocol.
	for _, src := range []string{
		"TypedEmployee new salary: 'lots'",              // method assignment
		"TypedEmployee new at: #salary put: 'x'",        // at:put:
		"| e | e := TypedEmployee new. e!salary := 'x'", // path assignment
		"TypedEmployee new at: #name put: 42",
	} {
		if _, err := in.Execute(src); err == nil || !strings.Contains(err.Error(), "constraint") {
			t.Errorf("%q: %v", src, err)
		}
	}
	// Constraints are inherited by subclasses.
	for _, s := range []string{
		`TypedEmployee subclass: 'TypedManager' instVarNames: #('dept')`,
	} {
		if _, err := in.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Execute("TypedManager new at: #salary put: 'nope'"); err == nil {
		t.Error("inherited constraint not enforced")
	}
	evalCases(t, in, [][2]string{
		{"| m | m := TypedManager new. m salary: 9. m!salary", "9"},
	})
	// Constraints persist across commits.
	if _, err := in.Execute("World at: #te put: TypedEmployee new. System commitTransaction"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("(World at: #te) at: #salary put: 'bad'"); err == nil {
		t.Error("constraint not enforced on committed object")
	}
}

func TestReflectionAndSorting(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"3 perform: #squared", "9"},
		{"3 perform: #+ with: 4", "7"},
		{"3 perform: 'between:and:' with: 1 with: 5", "true"},
		// The performed selector's arity must match the arguments given.
		{"3 perform: #+", "error: #+ takes 1 arguments, given 0"},
		{"3 perform: #at:put: with: 1", "error: #at:put: takes 2 arguments, given 1"},
		{"3 perform: #+ with: 4 with: 5", "error: #+ takes 1 arguments, given 2"},
		{"3 perform: #squared with: 4", "error: #squared takes 0 arguments, given 1"},
		// Results outside the SmallInteger range fail; they do not panic.
		{"1.0e19 asInteger", "error: out of SmallInteger range"},
		{"(-1 sqrt) asInteger", "error: out of SmallInteger range"},
		{"(0 - 2305843009213693951 - 1) negated", "error: out of SmallInteger range"},
		{"(0 - 2305843009213693951 - 1) abs", "error: out of SmallInteger range"},
		{"(0 - 2305843009213693951) negated", "2305843009213693951"},
		{"#(3 1 2) asSortedCollection: [:a :b | a <= b]", "an OrderedCollection( 1 2 3 )"},
		{"#(3 1 2) asSortedCollection: [:a :b | a >= b]", "an OrderedCollection( 3 2 1 )"},
		{"(#('pear' 'fig' 'apple') asSortedCollection: [:a :b | a <= b]) first", "'apple'"},
		{"(#(1 2 3) collect: [:x | x]) asArray", "an Array( 1 2 3 )"},
		{"#(1 2 3) asArray", "an Array( 1 2 3 )"},
		{"#(1 2 2 3 3 3) occurrencesOf: 3", "3"},
		{"#(1 2 3 4) average", "2.5"},
		{"#(4 2 9) minValue", "2"},
		{"#(1 1 2) asSet size", "2"},
		{"#(1 1 2) asBag size", "3"},
	})
	// do:separatedBy: drives the Transcript.
	if _, err := in.Execute("#(1 2 3) do: [:e | Transcript print: e] separatedBy: [Transcript show: ', ']"); err != nil {
		t.Fatal(err)
	}
	if got := in.TakeOutput(); got != "1, 2, 3" {
		t.Errorf("separatedBy = %q", got)
	}
	// perform: with a missing selector errors cleanly.
	if _, err := in.Execute("3 perform: #nonsense"); err == nil {
		t.Error("perform: of missing selector should fail")
	}
	if _, err := in.Execute("3 perform: 42"); err == nil {
		t.Error("perform: of non-selector should fail")
	}
	// Sort comparator errors propagate.
	if _, err := in.Execute("#(1 2) asSortedCollection: [:a :b | a foo]"); err == nil {
		t.Error("failing comparator should surface")
	}
}

func TestPrintWidthCap(t *testing.T) {
	in := newInterp(t)
	out, err := in.ExecuteToString("| c | c := OrderedCollection new. 1 to: 200 do: [:i | c add: i]. c")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "... 150 more") {
		t.Errorf("no elision: %.120s", out)
	}
	if len(out) > 400 {
		t.Errorf("printString too long: %d chars", len(out))
	}
}

func TestPrintDepthCap(t *testing.T) {
	in := newInterp(t)
	// A self-referential structure must not hang the printer.
	out, err := in.ExecuteToString("| d | d := Dictionary new. d at: #self put: d. d")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "...") {
		t.Errorf("no depth elision: %.120s", out)
	}
}

func TestHistoryProtocol(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"World at: #emp put: (Object new at: #salary put: 100; yourself). System commitTransaction",
		"World!emp at: #salary put: 200. System commitTransaction",
		"World!emp at: #salary put: 300. System commitTransaction",
	} {
		if _, err := in.Execute(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	out, err := in.ExecuteToString("(World!emp historyOf: #salary) size")
	if err != nil || out != "3" {
		t.Errorf("history size = %s (%v)", out, err)
	}
	out, err = in.ExecuteToString("(World!emp historyOf: #salary) first value")
	if err != nil || out != "100" {
		t.Errorf("oldest value = %s (%v)", out, err)
	}
	out, err = in.ExecuteToString("(World!emp historyOf: #salary) last value")
	if err != nil || out != "300" {
		t.Errorf("newest value = %s (%v)", out, err)
	}
	// The recorded times replay through @.
	out, err = in.ExecuteToString(`| ts | ts := World!emp changedTimesOf: #salary.
		World!emp at: #salary atTime: (ts at: 2)`)
	if err != nil || out != "200" {
		t.Errorf("value at second change = %s (%v)", out, err)
	}
	// Pending writes are not part of history.
	if _, err := in.Execute("World!emp at: #salary put: 999"); err != nil {
		t.Fatal(err)
	}
	out, _ = in.ExecuteToString("(World!emp historyOf: #salary) size")
	if out != "3" {
		t.Errorf("pending write leaked into history: %s", out)
	}
	// Missing element: empty history.
	out, _ = in.ExecuteToString("(World!emp historyOf: #bonus) size")
	if out != "0" {
		t.Errorf("missing element history = %s", out)
	}
}

func TestSharedSegmentAndGrants(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sys, _ := db.NewSession(auth.SystemUser, "swordfish")
	sysIn, err := NewInterp(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysIn.Execute("System createUser: 'alice' password: 'a'"); err != nil {
		t.Fatal(err)
	}
	if _, err := sysIn.Execute("System createUser: 'bob' password: 'b'"); err != nil {
		t.Fatal(err)
	}
	as, _ := db.NewSession("alice", "a")
	aIn, err := NewInterp(as)
	if err != nil {
		t.Fatal(err)
	}
	// A shared object is writable by another user; a home-segment object is
	// not even readable.
	if _, err := aIn.Execute(`World at: #shared put: ((System newShared: Object) at: #v put: 1; yourself).
		World at: #mine put: (Object new at: #v put: 2; yourself).
		System commitTransaction`); err != nil {
		t.Fatal(err)
	}
	bs, _ := db.NewSession("bob", "b")
	bIn, err := NewInterp(bs)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := bIn.ExecuteToString("World!shared!v"); err != nil || out != "1" {
		t.Errorf("bob reads shared: %s (%v)", out, err)
	}
	if _, err := bIn.Execute("World!shared at: #v put: 9. System commitTransaction"); err != nil {
		t.Errorf("bob writes shared: %v", err)
	}
	if _, err := bIn.Execute("World!mine!v"); err == nil {
		t.Error("bob read alice's home object")
	}
	// Grant read, then bob can read but not write.
	if _, err := aIn.Execute("System grantTo: 'bob' privilege: 'read'"); err != nil {
		t.Fatal(err)
	}
	if out, err := bIn.ExecuteToString("World!mine!v"); err != nil || out != "2" {
		t.Errorf("bob after grant: %s (%v)", out, err)
	}
	if _, err := bIn.Execute("World!mine at: #v put: 5"); err == nil {
		t.Error("read grant allowed a write")
	}
	// Bad privilege string errors.
	if _, err := aIn.Execute("System grantTo: 'bob' privilege: 'root'"); err == nil {
		t.Error("bad privilege accepted")
	}
	// Only the owner (or admin) grants.
	if _, err := bIn.Execute("System grantTo: 'alice' privilege: 'write'"); err != nil {
		// bob granting on HIS OWN home segment is legal; verify it works.
		t.Errorf("bob granting on his own segment: %v", err)
	}
}

// An index plan needs the same read privilege on the set as a scan: Bob,
// who cannot read Alice's set, is denied under every plan, and the index
// leaks neither a count nor a row. Nor does a send to one of Alice's
// objects answer as if it were a plain Object: it is denied too.
func TestIndexPlanKeepsReadPrivilege(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	interp := func(user, pw string) *Interp {
		s, err := db.NewSession(user, pw)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInterp(s)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	sysIn := interp(auth.SystemUser, "swordfish")
	for _, src := range []string{"System createUser: 'alice' password: 'a'", "System createUser: 'bob' password: 'b'"} {
		if _, err := sysIn.Execute(src); err != nil {
			t.Fatal(err)
		}
	}
	aIn := interp("alice", "a")
	if _, err := aIn.Execute(`| emps e |
		emps := Set new. World at: #aemps put: emps.
		1 to: 100 do: [:i | e := Dictionary new. e at: #salary put: i * 1000. emps add: e].
		World at: #ax put: Object new.
		System commitTransaction`); err != nil {
		t.Fatal(err)
	}
	denied := [][2]string{
		{"{ {E: e} where (e in World!aemps) and e!salary > 90000 } size", "error: access denied"},
		{"{ {E: e} where (e in World!aemps) and e!salary = 42000 } size", "error: access denied"},
		{"World!ax class", "error: access denied"},
		{"World!ax isNil", "error: access denied"},
		{"World!ax m", "error: access denied"},
	}
	evalCases(t, interp("bob", "b"), denied)
	if _, err := aIn.Execute("World!aemps indexOn: 'salary'. System commitTransaction"); err != nil {
		t.Fatal(err)
	}
	if plan, err := aIn.ExecuteToString("System explain: '{E: e} where (e in World!aemps) and e!salary > 90000'"); err != nil || !strings.Contains(plan, "index-scan") {
		t.Fatalf("plan after indexOn: = %s (%v)", plan, err)
	}
	evalCases(t, aIn, [][2]string{
		{"{ {E: e} where (e in World!aemps) and e!salary > 90000 } size", "10"},
		{"{ {E: e} where (e in World!aemps) and e!salary = 42000 } size", "1"},
	})
	evalCases(t, interp("bob", "b"), denied)
}

func TestEmbeddedCalculus(t *testing.T) {
	// §5.4: "we have been able to incorporate declarative statements in
	// OPAL without departing from Smalltalk syntax ... it can include
	// procedural parts, and can be included in procedural methods."
	in := newInterp(t)
	setup := `| emps e |
		emps := Dictionary new. World at: #Employees put: emps.
		e := Dictionary new. e at: #Name put: 'Burns'. e at: #Salary put: 24650. emps at: 'E62' put: e.
		e := Dictionary new. e at: #Name put: 'Peters'. e at: #Salary put: 24000. emps at: 'E83' put: e.
		e := Dictionary new. e at: #Name put: 'Hopper'. e at: #Salary put: 31000. emps at: 'E90' put: e.
		System commitTransaction`
	if _, err := in.Execute(setup); err != nil {
		t.Fatal(err)
	}
	// An inline declarative expression as a first-class value.
	evalCases(t, in, [][2]string{
		{"{ {E: e} where (e in World!Employees) and e!Salary > 30000 } size", "1"},
		{"({ {E: e} where (e in World!Employees) and e!Salary > 30000 } first at: #E) at: #Name", "'Hopper'"},
		// Procedural parts: a method temp inside the declarative expression.
		{"| floor | floor := 24500. { {E: e} where (e in World!Employees) and e!Salary > floor } size", "2"},
		// The result is an ordinary collection: procedural post-processing.
		{"| rows | rows := { {E: e} where (e in World!Employees) and e!Salary > 0 }. (rows collect: [:r | (r at: #E) at: #Salary]) sum", "79650"},
	})
	// Inside a method, capturing both an argument and an instance variable
	// chain through a temp.
	for _, src := range []string{
		`Object subclass: 'Payroll' instVarNames: #()`,
		`Payroll compile: 'earningOver: floor | rows | rows := { {E: e} where (e in World!Employees) and e!Salary > floor }. ^rows size'`,
	} {
		if _, err := in.Execute(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	evalCases(t, in, [][2]string{
		{"Payroll new earningOver: 24500", "2"},
		{"Payroll new earningOver: 0", "3"},
	})
	// Compile-time validation of the embedded query.
	if _, err := in.Execute("{ {E: e} where }"); err == nil {
		t.Error("bad embedded calculus accepted")
	}
	if _, err := in.Execute("{ {E: e} where (e in World!Employees"); err == nil {
		t.Error("unterminated calculus accepted")
	}
	// Strings containing braces inside the query are handled.
	evalCases(t, in, [][2]string{
		{"{ {E: e} where (e in World!Employees) and e!Name = '{odd}' } size", "0"},
	})
}

func TestEmbeddedCalculusUsesIndexes(t *testing.T) {
	in := newInterp(t)
	if _, err := in.Execute(`| emps e |
		emps := Set new. World at: #emps put: emps.
		1 to: 100 do: [:i | e := Dictionary new. e at: #salary put: i. emps add: e].
		System commitTransaction`); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("World!emps indexOn: 'salary'"); err != nil {
		t.Fatal(err)
	}
	out, err := in.ExecuteToString("{ {E: e} where (e in World!emps) and e!salary = 42 } size")
	if err != nil || out != "1" {
		t.Errorf("indexed embedded query = %s (%v)", out, err)
	}
}
