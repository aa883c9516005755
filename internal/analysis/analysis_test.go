package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkFixture type-checks src as a single-file package with the given
// import path and runs the analyzers over it, returning the surviving
// findings. Imports resolve through the same export-data importer gslint
// uses, so fixtures may import sync, sort or repro packages.
func checkFixture(t *testing.T, pkgPath, src string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	return checkFixtures(t, []fixturePkg{{path: pkgPath, src: src}}, analyzers...)
}

// fixturePkg is one single-file package of a multi-package fixture.
type fixturePkg struct {
	path string
	src  string
}

// checkFixtures type-checks the fixture packages in order — dependencies
// first, so later fixtures can import earlier ones by path — builds the
// whole-program layer over them, and returns every package's surviving
// findings concatenated in package order.
func checkFixtures(t *testing.T, fixtures []fixturePkg, analyzers ...*Analyzer) []Finding {
	t.Helper()
	pkgs := fixturePackages(t, fixtures)
	return RunAll(analyzers, BuildProgram(pkgs), pkgs)
}

// fixturePackages parses and type-checks the fixture packages in order,
// wiring later packages' imports to earlier packages' source-checked
// types the same way LoadPackages does for the real tree.
func fixturePackages(t *testing.T, fixtures []fixturePkg) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	imp := &sourceFirstImporter{
		exports: exportImporter{fset: fset, exports: map[string]string{}},
		source:  make(map[string]*types.Package),
	}
	var pkgs []*Package
	for i, fx := range fixtures {
		name := "fixture.go"
		if i > 0 {
			name = fmt.Sprintf("fixture%d.go", i)
		}
		f, err := parser.ParseFile(fset, name, fx.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", fx.path, err)
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(fx.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-check fixture %s: %v", fx.path, err)
		}
		imp.source[fx.path] = pkg
		pkgs = append(pkgs, &Package{Path: fx.path, Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info})
	}
	return pkgs
}

// wantFindings asserts that got has exactly one finding per want entry, in
// order, each whose message contains the corresponding substring.
func wantFindings(t *testing.T, got []Finding, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), renderFindings(got))
	}
	for i, w := range want {
		if !strings.Contains(got[i].Message, w) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i].Message, w)
		}
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)"
	}
	return b.String()
}

const suppressionFixture = `package fx

func Suppressed(m map[string]int) int {
	n := 0
	//lint:ignore detmap order does not matter for a count
	for range m {
		n++
	}
	return n
}

func Unused(x int) int {
	//lint:ignore detmap nothing on this line ever fires
	return x
}

func Malformed(m map[string]int) int {
	n := 0
	//lint:ignore detmap
	for range m {
		n++
	}
	return n
}

func Unknown(x int) int {
	//lint:ignore nosuchanalyzer because reasons
	return x
}
`

func TestSuppressions(t *testing.T) {
	got := checkFixture(t, "repro/internal/store", suppressionFixture,
		Detmap("repro/internal/store"))
	// Suppressed's loop is waived; Malformed's suppression lacks a reason so
	// its loop still fires and the comment itself is reported; the unused
	// and unknown-analyzer suppressions are reported.
	wantFindings(t, got,
		"unused suppression for detmap", // line 13
		"malformed suppression",         // line 19
		"iteration over map",            // Malformed's loop (line 20)
		"unknown analyzer",              // line 27
	)
}

func TestAnalyzerScoping(t *testing.T) {
	// The same offending source is clean when the package is outside the
	// analyzer's path set.
	src := `package fx

func Sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`
	if got := checkFixture(t, "repro/internal/experiments", src, Detmap("repro/internal/store")); len(got) != 0 {
		t.Fatalf("out-of-scope package produced findings:\n%s", renderFindings(got))
	}
	if got := checkFixture(t, "repro/internal/store/sub", src, Detmap("repro/internal/store")); len(got) != 1 {
		t.Fatalf("subdirectory of a scoped path must be covered:\n%s", renderFindings(got))
	}
}
