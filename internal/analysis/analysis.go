// Package analysis is gslint's engine: a small, stdlib-only static-analysis
// framework (go/parser + go/ast + go/types) plus the analyzers that
// machine-check the paper's implementation invariants:
//
//	locksafe    — fields annotated "guards"/"guarded by" are only touched
//	              where their mutex is held on every path (the
//	              shared-cache and commit-lock discipline of internal/core,
//	              internal/store, internal/txn)
//	detmap      — no unordered map iteration on serialization/commit/wire
//	              paths, so track images and replication streams are
//	              byte-deterministic
//	wallclock   — no time.Now/math/rand in the kernel packages; transaction
//	              time comes from the commit clock, keeping @T reads
//	              reproducible
//	ooppure     — OOPs are immutable entity identities: no arithmetic on
//	              oop.OOP, no reassignment of another package's OOP-typed
//	              identity fields outside constructors
//	lockorder   — the interprocedural lock-acquisition graph is cycle-free:
//	              no two call chains can acquire the same pair of program
//	              mutexes in opposite orders (deadlock freedom)
//	unlockpath  — every Lock/RLock is paired with a release on every path
//	              out of the function (early returns, explicit panics),
//	              interprocedurally through lock summaries
//	errflow     — error results born on the durability path (track/replica
//	              writes, syncs, superblock flips) flow to a return, log,
//	              or health transition — never _ or a dead assignment
//	bufown      — pooled buffers (sync.Pool, takePage/putPage,
//	              popTrack/recycleLocked, the algebra runScratch) follow
//	              take → use → put exactly once on every exit path, with
//	              no use-after-put and no escape into caller-visible state
//	sessionlife — sessions reach Close on every path out of the creating
//	              function and are never used after (the
//	              bootstrap-session-leak class)
//
// locksafe, lockorder, unlockpath, errflow, bufown and sessionlife are
// built on the whole-program layer (Program, BuildProgram): a call graph
// over every loaded package, computed once per run and shared through
// Pass.Prog. They run path-sensitively over per-function control-flow
// graphs (CFGOf) with the forward-dataflow fixpoint solver (FlowSpec,
// Forward). The three lock analyzers read one lock-state pass and one
// per-function lock summary (locks.go); errflow has its own reaching
// definitions; bufown and sessionlife run the typestate engine
// (typestate.go) — per-value finite state machines with light alias
// tracking and interprocedural consume summaries.
//
// Intentional exceptions are written in the source as
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above it, so every waiver is explicit
// and auditable. A suppression without a reason is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	// Paths restricts the analyzer to packages whose import path matches
	// one of these entries exactly, or is a subdirectory of one. Empty
	// means every package.
	Paths []string
	Run   func(*Pass)
}

// applies reports whether the analyzer covers the package path.
func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the whole-program layer. Interprocedural analyzers compute
	// their result once via Prog.Once and replay it through Reportf on
	// every package's pass; Reportf keeps only the findings that land in
	// the current package, so suppression matching stays per-package.
	Prog *Program

	ownFiles map[string]bool
	findings *[]Finding
}

// Reportf records a finding at pos. Findings positioned outside the
// pass's own files are dropped — the package whose pass owns that file
// reports them instead.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ownFiles != nil && !p.ownFiles[position.Filename] {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	analyzer string // "" means malformed
	reason   string
	used     bool
	pos      token.Pos
}

const ignorePrefix = "//lint:ignore"

// collectSuppressions indexes every //lint:ignore comment by file and line.
func collectSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int]*suppression {
	out := make(map[string]map[int]*suppression)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				s := &suppression{pos: c.Pos()}
				if name, reason, ok := strings.Cut(rest, " "); ok && strings.TrimSpace(reason) != "" {
					s.analyzer = name
					s.reason = strings.TrimSpace(reason)
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]*suppression)
				}
				out[pos.Filename][pos.Line] = s
			}
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to one of prog's packages and
// returns the surviving (unsuppressed) findings, sorted by position.
// Suppression comments must name the analyzer and give a reason;
// malformed or unused suppressions are reported so waivers cannot rot
// silently.
func RunAnalyzers(analyzers []*Analyzer, prog *Program, target *Package) []Finding {
	fset, files, pkg, info := target.Fset, target.Files, target.Pkg, target.Info
	ownFiles := make(map[string]bool, len(files))
	for _, f := range files {
		ownFiles[fset.Position(f.Pos()).Filename] = true
	}
	var raw []Finding
	for _, a := range analyzers {
		if !a.applies(pkg.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info,
			Prog: prog, ownFiles: ownFiles, findings: &raw,
		}
		a.Run(pass)
	}

	sup := collectSuppressions(fset, files)
	var out []Finding
	for _, f := range raw {
		if s := matchSuppression(sup, f); s != nil {
			s.used = true
			continue
		}
		out = append(out, f)
	}
	// Malformed and unused suppressions are findings themselves.
	for _, lines := range sup {
		for _, s := range lines {
			switch {
			case s.analyzer == "":
				out = append(out, Finding{
					Pos:      fset.Position(s.pos),
					Analyzer: "gslint",
					Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
				})
			case !s.used && analyzerNamed(analyzers, s.analyzer) == nil:
				// A waiver for a real analyzer that just isn't in this run
				// (e.g. gslint -only) is neither unknown nor unused.
				if analyzerNamed(All(), s.analyzer) != nil {
					continue
				}
				out = append(out, Finding{
					Pos:      fset.Position(s.pos),
					Analyzer: "gslint",
					Message:  fmt.Sprintf("suppression names unknown analyzer %q", s.analyzer),
				})
			case !s.used && analyzerNamed(analyzers, s.analyzer).applies(pkg.Path()):
				out = append(out, Finding{
					Pos:      fset.Position(s.pos),
					Analyzer: "gslint",
					Message:  fmt.Sprintf("unused suppression for %s; remove it", s.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// RunAll applies the analyzers to every package of prog and returns the
// surviving findings in package load order.
func RunAll(analyzers []*Analyzer, prog *Program, pkgs []*Package) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, RunAnalyzers(analyzers, prog, pkg)...)
	}
	return all
}

func analyzerNamed(analyzers []*Analyzer, name string) *Analyzer {
	for _, a := range analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// matchSuppression finds a suppression covering the finding: same line or
// the line directly above, naming the finding's analyzer.
func matchSuppression(sup map[string]map[int]*suppression, f Finding) *suppression {
	lines := sup[f.Pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		if s, ok := lines[line]; ok && s.analyzer == f.Analyzer {
			return s
		}
	}
	return nil
}

// All returns the production analyzer set with the repository's scoping.
// internal/iofault sits in the detmap and wallclock scopes (and locksafe is
// global): a fault schedule that iterated a map or read the wall clock
// would make failure replays nondeterministic.
func All() []*Analyzer {
	return []*Analyzer{
		Locksafe(),
		Detmap("repro/internal/store", "repro/internal/txn", "repro/internal/wire", "repro/internal/core", "repro/internal/obs", "repro/internal/iofault"),
		Wallclock("repro/internal/oop", "repro/internal/txn", "repro/internal/store", "repro/internal/core", "repro/internal/object", "repro/internal/wire", "repro/internal/iofault"),
		Ooppure("repro/internal/oop"),
		Lockorder(),
		Unlockpath(),
		// The testdata/seeded path keeps the scoped analyzer live on the
		// seeded-bug fixtures CI loads explicitly (the linter's linter);
		// `./...` never matches a testdata directory, so it is inert in
		// normal runs.
		// internal/experiments is deliberately out of errflow scope: the
		// claim demos discard object-layer errors in controlled setups by
		// design (the checker asserts on final state instead). Fault
		// injection there (DamageTrack) must still be checked — triage
		// fixed those by hand; see claims2.go.
		Errflow("repro/cmd/gemstone", "repro/internal/store", "repro/internal/txn", "repro/internal/core", "repro/internal/wire", "repro/internal/executor", "repro/internal/iofault", "repro/internal/analysis/testdata/seeded"),
		// bufown is scoped to the packages that own pools (plus the seeded
		// canaries); sessionlife runs everywhere sessions flow.
		Bufown("repro/internal/store", "repro/internal/algebra", "repro/internal/txn", "repro/internal/analysis/testdata/seeded"),
		Sessionlife(),
	}
}

// Waiver is one //lint:ignore suppression, for `gslint -waivers` audits.
// Malformed suppressions surface with an empty Analyzer and Reason (they
// are also lint findings in their own right).
type Waiver struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// Waivers lists every suppression comment in the package, sorted by
// position.
func Waivers(pkg *Package) []Waiver {
	var out []Waiver
	for _, lines := range collectSuppressions(pkg.Fset, pkg.Files) {
		for _, s := range lines {
			out = append(out, Waiver{
				Pos:      pkg.Fset.Position(s.pos),
				Analyzer: s.analyzer,
				Reason:   s.reason,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}
