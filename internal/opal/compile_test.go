package opal

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/oop"
)

// FuzzCompile: for any input, parsing and compiling it as a doIt, as a
// method, and as Interp.Path's read and store either fails with an error or
// succeeds; none panics. Seeded with the kernel method sources, every
// literal evalCases text in this package's tests, and path forms and
// non-paths.
func FuzzCompile(f *testing.F) {
	for _, srcs := range kernelSources {
		for _, src := range srcs {
			f.Add(src)
		}
	}
	for _, src := range evalCaseTexts(f) {
		f.Add(src)
	}
	for _, src := range []string{
		"X!Departments!A16!Managers", "World!'Acme Corp'!president@7!city", "A!1!2",
		"x ! y @ 3", "x!'it''s'", "x!y@(t - 1)", "World!4611686018427387904",
		"", "!x", "x!", "x!!y", "x!'unterminated", "x!y@", "x!y@abc", "x!y junk", "7!x",
		"3 + 4", "World!n printString", "World!n := 3",
	} {
		f.Add(src)
	}
	stored := oop.Nil
	f.Fuzz(func(t *testing.T, src string) {
		if m, err := parseDoIt(src); err == nil {
			_, _ = compileDoIt(m)
		}
		if m, err := parseMethod(src); err == nil {
			_, _ = compileMethod(m, []string{"n", "name"})
		}
		_, _ = compilePath(src, []string{"x", "y"}, nil)
		_, _ = compilePath(src, []string{"x", "y"}, &stored)
	})
}

// evalCaseTexts collects the source of every evalCases row written as a
// string literal in this package's test files.
func evalCaseTexts(tb testing.TB) []string {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	var texts []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		file, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "evalCases" {
				return true
			}
			rows, ok := call.Args[2].(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, row := range rows.Elts {
				pair, ok := row.(*ast.CompositeLit)
				if !ok || len(pair.Elts) != 2 {
					continue
				}
				if lit, ok := pair.Elts[0].(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						texts = append(texts, s)
					}
				}
			}
			return true
		})
	}
	if len(texts) == 0 {
		tb.Fatal("found no evalCases rows")
	}
	return texts
}

// BenchmarkCompile measures parse+compile alone over gsload's request
// shapes: the vm_compute spin loop, the oltp_commit update, and
// history_mixed's path read, time-dialled read and update.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"spin", "1 to: 3990 do: [:i | i]. 'ok'"},
		{"oltp_update", "| a | a := World!accts at: 17. a at: #balance put: (a at: #balance) + 5. a at: #seq put: 3. a at: #balance"},
		{"history_path", "World!hot3!v5"},
		{"history_dial", "| r | System timeDial: 120. r := World!hot3!v5. System timeDialNow. r"},
		{"history_update", "| o | o := World!hot3. o at: #v5 put: (o at: #v5) + 7. o at: #v5"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := parseDoIt(c.src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := compileDoIt(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDialAlternationCompilesEachVersionOnce: a session that switches its
// time dial back and forth between two states in which a method differs
// compiles each version once, not once per switch.
func TestDialAlternationCompilesEachVersionOnce(t *testing.T) {
	in := newInterp(t)
	var times [2]oop.Time
	for i, src := range []string{"Object subclass: 'Probe' instVarNames: #(). Probe compile: 'v ^1'", "Probe compile: 'v ^2'"} {
		if _, err := in.Execute(src); err != nil {
			t.Fatal(err)
		}
		tc, err := in.s.Commit()
		if err != nil {
			t.Fatal(err)
		}
		times[i] = tc
	}
	class, ok := in.s.Global("Probe")
	if !ok {
		t.Fatal("Probe is not defined")
	}
	compiled := map[*compiledMethod]bool{}
	for i := 0; i < 100; i++ {
		if err := in.s.SetTimeDial(times[i%2]); err != nil {
			t.Fatal(err)
		}
		if got, err := in.ExecuteToString("Probe new v"); err != nil || got != strconv.Itoa(1+i%2) {
			t.Fatalf("switch %d: Probe new v = %q (%v), want %d", i, got, err, 1+i%2)
		}
		e, err := in.lookup(class, "v", in.s.Symbol("v"))
		if err != nil || e.method == nil {
			t.Fatalf("switch %d: lookup of #v = %+v (%v)", i, e, err)
		}
		compiled[e.method] = true
	}
	if len(compiled) != 2 {
		t.Errorf("100 dial switches between two versions of #v ran %d distinct compiles, want 2", len(compiled))
	}
}
