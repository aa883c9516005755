package analysis

import (
	"testing"
)

// TestRepoIsClean runs the full production analyzer set — including the
// whole-program lockorder/unlockpath/errflow/bufown/sessionlife passes —
// over the real repository and asserts zero findings, exactly like `make
// lint`. A failure here means a change introduced an invariant violation
// (or a waiver went stale).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := LoadPackages("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repository: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, f := range RunAll(All(), BuildProgram(pkgs), pkgs) {
		t.Errorf("%s", f)
	}
}

// TestSeededFixturesFire is the linter's linter: it loads the
// deliberately buggy testdata/seeded package (invisible to `./...`) and
// asserts every gated analyzer trips on its specimen — proof the
// production analyzer set still detects the bug classes it gates. CI runs
// the built gslint binary against the same package and requires a
// non-zero exit.
func TestSeededFixturesFire(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the seeded fixture package")
	}
	pkgs, err := LoadPackages("../..", []string{"./internal/analysis/testdata/seeded"})
	if err != nil {
		t.Fatalf("load seeded fixtures: %v", err)
	}
	got := RunAll(All(), BuildProgram(pkgs), pkgs)
	want := map[string]bool{
		"unlockpath": false, "errflow": false, "bufown": false, "sessionlife": false,
	}
	for _, f := range got {
		if _, seeded := want[f.Analyzer]; !seeded {
			t.Errorf("unexpected analyzer fired on the seeded fixtures: %s", f)
			continue
		}
		want[f.Analyzer] = true
	}
	for name, fired := range want {
		if !fired {
			t.Errorf("seeded bug for %s did not fire; the analyzer has gone blind:\n%s",
				name, renderFindings(got))
		}
	}
}

// TestRepoWaiversHaveReasons audits every //lint:ignore in the tree: each
// must name an analyzer and carry a non-empty reason (the -waivers
// contract), and name an analyzer that actually exists.
func TestRepoWaiversHaveReasons(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := LoadPackages("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repository: %v", err)
	}
	all := All()
	n := 0
	for _, pkg := range pkgs {
		for _, w := range Waivers(pkg) {
			n++
			if w.Analyzer == "" || w.Reason == "" {
				t.Errorf("%s:%d: malformed waiver (analyzer=%q reason=%q)",
					w.Pos.Filename, w.Pos.Line, w.Analyzer, w.Reason)
				continue
			}
			if analyzerNamed(all, w.Analyzer) == nil {
				t.Errorf("%s:%d: waiver names unknown analyzer %q",
					w.Pos.Filename, w.Pos.Line, w.Analyzer)
			}
		}
	}
	if n == 0 {
		t.Error("expected at least one waiver in the tree (e.g. txn.trimLocked's detmap)")
	}
}
