package gemstone

import (
	"fmt"
	"strings"
	"testing"
)

// pathRow is one Session.Path row, or a PathAssign row when assign is set:
// the assignment runs first, then src is read back. want is the answer's
// printString, or "error: <text>" for a call that must fail with <text>.
type pathRow struct {
	src    string
	env    map[string]Value
	assign string // OPAL source of the value to assign; empty to only read
	want   string
}

// TestSessionPath checks the Go API's path language, which is OPAL's: the
// paper's forms (§4.3, §5.3.2), what they answer over the Acme example at
// past and present times, the inputs that are not paths, and assignment
// through a path, which honours element constraints as OPAL's does.
func TestSessionPath(t *testing.T) {
	s := login(t, openDB(t))
	run := func(src string) Time {
		t.Helper()
		if _, err := s.Run(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ct, err := s.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	tBefore := run(`Object subclass: 'Person' instVarNames: #('name' 'city').
		Person compile: 'name: n name := n'.
		Person compile: 'printString ^name'.
		Object subclass: 'TypedEmp' instVarNames: #('salary').
		TypedEmp constrain: #salary to: Number.
		World at: #te put: TypedEmp new.
		World at: 'Acme Corp' asSymbol put: Dictionary new.
		World at: #ayn put: (Person new name: 'Ayn').
		World at: #milton put: (Person new name: 'Milton').
		World at: #n put: 5.
		World at: #A put: #(#(10 20) 30).
		World at: #X put: Dictionary new.
		X!Departments := Dictionary new.
		X!Departments!A16 := Dictionary new.
		X!Departments!A16!Managers := 'Ada'.
		X!Employees := Dictionary new.
		X!Employees!E62 := Dictionary new.
		X!Employees!E62!Name := 'Ellen'`)
	tAyn := run(`World!'Acme Corp'!president := World!ayn`)
	tBetween := run(`World at: #clock put: 1`)
	run(`World!'Acme Corp'!president := World!milton`)
	tNow := run(`World!ayn!city := 'San Diego'`)
	if tBetween <= tAyn {
		t.Fatalf("commit times %d, %d do not ascend", tAyn, tBetween)
	}
	acme, err := s.Path("World!'Acme Corp'", nil)
	if err != nil {
		t.Fatal(err)
	}
	ayn, err := s.Path("ayn", nil)
	if err != nil {
		t.Fatal(err)
	}
	x := map[string]Value{"x": ayn}

	groups := []struct {
		name string
		rows []pathRow
	}{
		{"ParseForms", []pathRow{
			{src: "X!Departments!A16!Managers", want: "'Ada'"},
			{src: "X!Employees!E62!Name", want: "'Ellen'"},
			{src: "World!'Acme Corp'!president", want: "Milton"},
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d", tNow), want: "Milton"},
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d!city", tBetween), want: "'San Diego'"},
			{src: "A!1!2", want: "20"},
			{src: fmt.Sprintf("x ! city @ %d", tNow), env: x, want: "'San Diego'"},
			{src: "x!'it''s'", env: x, want: "nil"},
			{src: "World ! n", want: "5"},
			{src: "n", want: "5"},
		}},
		{"ParseErrors", []pathRow{
			{src: "", want: "error: expected variable"},
			{src: "!x", want: "error: expected variable"},
			{src: "x!", env: x, want: "error: expected element name"},
			{src: "x!!y", env: x, want: "error: expected element name"},
			{src: "x!'unterminated", env: x, want: "error: unterminated"},
			{src: "x!y@", env: x, want: "error: expected time"},
			{src: "x!y@abc", env: x, want: `error: undefined name "abc"`},
			{src: "x!y junk", env: x, want: "error: expected end of path"},
			{src: "7!x", want: "error: expected variable"},
			{src: "3 + 4", want: "error: expected variable"},
			{src: "World!n printString", want: "error: expected end of path"},
			{src: "World!n := 3", want: "error: expected end of path"},
			// A doIt's @(expr) runs code; a path's time is an integer or
			// a variable only, so nothing below may run.
			{src: "World!a!b@(World at: #k put: 1)", want: "error: path time must be an integer or a variable"},
			{src: "World!n@(World at: #k put: 2)", assign: "3", want: "error: path time must be an integer or a variable"},
			{src: "World!n@('s')", want: "error: path time must be an integer or a variable"},
		}},
		{"EvalPaperQueries", []pathRow{
			{src: "World!'Acme Corp'!president", want: "Milton"},
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d", tBefore), want: "nil"},
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d", tBetween), want: "Ayn"},
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d", tNow), want: "Milton"},
			// The previous president's current city.
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d!city", tBetween), want: "'San Diego'"},
		}},
		{"EvalMissingAndErrors", []pathRow{
			{src: "World!'Acme Corp'!treasurer", want: "nil"},
			{src: "World!'Acme Corp'!treasurer!name", want: `error: cannot navigate "name" from nil`},
			{src: "Nowhere!x", want: `error: undefined name "Nowhere"`},
			{src: "Nowhere", want: `error: undefined name "Nowhere"`},
			{src: "World!n!x", want: `error: cannot navigate "x" from 5`},
			{src: "World!4611686018427387904", want: "error: integer literal out of range"},
		}},
		{"EvalIndexedSegments", []pathRow{
			{src: "World!A!2", want: "30"},
			{src: "A!1!1", want: "10"},
			{src: "A!3", want: "nil"},
			{src: "A!0", want: "nil"},
		}},
		{"Assign", []pathRow{
			{src: "World!'Acme Corp'!budget", assign: "142000", want: "142000"},
			{src: "World!'Acme Corp'!president!title", assign: "1", want: "1"},
			{src: "x!'it''s'", env: x, assign: "'mine'", want: "'mine'"},
			{src: "World", assign: "nil", want: `error: cannot assign to bare variable "World"`},
			{src: "x", env: x, assign: "nil", want: `error: cannot assign to bare variable "x"`},
			{src: fmt.Sprintf("World!'Acme Corp'!president@%d", tAyn), assign: "nil", want: "error: cannot assign into a past state"},
			{src: "World!n!x", assign: "1", want: "error: cannot store element into 5"},
			{src: "World!4611686018427387904", assign: "1", want: "error: integer literal out of range"},
			{src: "World!te!salary", assign: "'lots'", want: "error: constraint violation"},
		}},
		{"LocalsOverlay", []pathRow{
			{src: "e!city", env: map[string]Value{"e": ayn}, want: "'San Diego'"},
			{src: "World!president", env: map[string]Value{"World": acme}, want: "Milton"},
			{src: "World!president", env: map[string]Value{"World": acme, "e": ayn}, want: "Milton"},
		}},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for _, r := range g.rows {
				if got, err := pathRowAnswer(s, r); err != nil {
					if want, ok := strings.CutPrefix(r.want, "error: "); !ok || !strings.Contains(err.Error(), want) {
						t.Errorf("%q: %v, want %s", r.src, err, r.want)
					}
				} else if got != r.want {
					t.Errorf("%q = %s, want %s", r.src, got, r.want)
				}
			}
		})
	}
	if got, err := s.Path("World!k", nil); err != nil || got != Nil {
		t.Errorf("World!k = %v (%v), want nil: a path's time subscript ran code", got, err)
	}
	// The store the constraint rejected left nothing behind to commit.
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Run("World!te!salary"); err != nil || got != "nil" {
		t.Errorf("committed salary = %s (%v)", got, err)
	}
}

// pathRowAnswer runs a row's assignment, if any, then reads its path and
// answers the printString.
func pathRowAnswer(s *Session, r pathRow) (string, error) {
	if r.assign != "" {
		v, err := s.Execute(r.assign)
		if err != nil {
			return "", err
		}
		if err := s.PathAssign(r.src, v.Value, r.env); err != nil {
			return "", err
		}
	}
	v, err := s.Path(r.src, r.env)
	if err != nil {
		return "", err
	}
	return s.Print(v)
}
