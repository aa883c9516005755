// Package calculus implements the set-calculus query language of §5.1: a
// declarative syntax over labeled sets, whose "distinguishing feature ...
// is that variables can be bound to functions of other variables" — range
// sources may be paths through previously bound variables, as in
// (m in d!Managers).
//
// The ASCII concrete syntax used here renders ∈ as "in":
//
//	{Emp: e, Mgr: m} where
//	  (e in X!Employees) and
//	  (d in X!Departments) [(m in d!Managers) and
//	    (d!Name in e!Depts) and (e!Salary > 0.10 * d!Budget)]
//
// The bracket form nests dependent ranges; parsing flattens the query into
// binding-ordered ranges plus a conjunction of predicates, the canonical
// input to the calculus→algebra translator (package algebra).
package calculus

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/oop"
)

// Query is a parsed calculus expression.
type Query struct {
	Target []TargetField // the result tuple constructor {Label: var, ...}
	Ranges []Range       // in dependency (binding) order
	Pred   Expr          // conjunction of all predicates; nil means true
}

// TargetField labels one variable in the result tuple.
type TargetField struct {
	Label string
	Var   string
}

// Range binds Var to each member of the set denoted by Source (which may
// reference previously bound variables).
type Range struct {
	Var    string
	Source Expr
}

// Op enumerates binary operators.
type Op uint8

// Binary operators, in no particular precedence order (precedence is a
// parser concern).
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIn // membership: value is (structurally) equal to some member
	OpAnd
	OpOr
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIn:
		return "in"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is a calculus expression node.
type Expr interface {
	// FreeVars appends the variables the expression references.
	FreeVars(into map[string]bool)
	String() string
}

// Path references a variable and navigates elements from it:
// d!Name, e!Salary, X!Employees. A bare variable is a Path with no steps.
type Path struct {
	Root  string
	Steps []PathStep
}

// PathStep is one navigation step (element name or index, optional @T).
type PathStep struct {
	Name    string
	IsIndex bool
	Index   int64
	HasAt   bool
	At      uint64

	// sym is Name's symbol in db, interned on the step's first evaluation
	// there (elementName). Like OPAL's compiled code, a parsed query is
	// evaluated by one session at a time, so the cell takes no lock.
	db  *core.DB
	sym oop.OOP
}

// FreeVars implements Expr.
func (p *Path) FreeVars(into map[string]bool) { into[p.Root] = true }

func (p *Path) String() string {
	var b strings.Builder
	b.WriteString(p.Root)
	for _, s := range p.Steps {
		b.WriteByte('!')
		if s.IsIndex {
			fmt.Fprintf(&b, "%d", s.Index)
		} else if isIdent(s.Name) {
			b.WriteString(s.Name)
		} else {
			fmt.Fprintf(&b, "'%s'", strings.ReplaceAll(s.Name, "'", "''"))
		}
		if s.HasAt {
			fmt.Fprintf(&b, "@%d", s.At)
		}
	}
	return b.String()
}

// Num is a numeric literal (held as float64; integral values print bare).
type Num struct{ V float64 }

// FreeVars implements Expr.
func (Num) FreeVars(map[string]bool) {}

func (n Num) String() string {
	if n.V == float64(int64(n.V)) {
		return fmt.Sprintf("%d", int64(n.V))
	}
	return fmt.Sprintf("%g", n.V)
}

// Str is a string literal.
type Str struct{ V string }

// FreeVars implements Expr.
func (Str) FreeVars(map[string]bool) {}

func (s Str) String() string { return "'" + strings.ReplaceAll(s.V, "'", "''") + "'" }

// Bool is true/false.
type Bool struct{ V bool }

// FreeVars implements Expr.
func (Bool) FreeVars(map[string]bool) {}

func (b Bool) String() string {
	if b.V {
		return "true"
	}
	return "false"
}

// Nil is the nil literal.
type Nil struct{}

// FreeVars implements Expr.
func (Nil) FreeVars(map[string]bool) {}

func (Nil) String() string { return "nil" }

// Binary applies Op to two subexpressions.
type Binary struct {
	Op   Op
	L, R Expr
}

// FreeVars implements Expr.
func (b *Binary) FreeVars(into map[string]bool) {
	b.L.FreeVars(into)
	b.R.FreeVars(into)
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a predicate.
type Not struct{ E Expr }

// FreeVars implements Expr.
func (n *Not) FreeVars(into map[string]bool) { n.E.FreeVars(into) }

func (n *Not) String() string { return fmt.Sprintf("(not %s)", n.E) }

// String renders the query in concrete syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range q.Target {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", t.Label, t.Var)
	}
	b.WriteString("} where ")
	for i, r := range q.Ranges {
		if i > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "(%s in %s)", r.Var, r.Source)
	}
	if q.Pred != nil {
		if len(q.Ranges) > 0 {
			b.WriteString(" and ")
		}
		b.WriteString(q.Pred.String())
	}
	return b.String()
}

// Conjuncts splits the predicate into its top-level AND factors.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// And joins predicates into a conjunction (nil-tolerant).
func And(a, b Expr) Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &Binary{Op: OpAnd, L: a, R: b}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
