// Command gslint runs the GemStone invariant analyzers over the
// repository's own source:
//
//	go run ./cmd/gslint ./...
//
// It exits non-zero if any finding survives. See internal/analysis for the
// analyzers (locksafe, detmap, wallclock, ooppure, lockorder, unlockpath,
// errflow, bufown, sessionlife; the three lock analyzers share one
// lock-state pass) and the //lint:ignore <analyzer> <reason> suppression
// syntax. Findings are emitted in package load order.
//
// Modes:
//
//	gslint ./...            human-readable findings, exit 1 if any
//	gslint -json ./...      findings as a JSON array (always exit 0 unless
//	                        the load itself fails; CI inspects the array)
//	gslint -waivers ./...   audit listing of every //lint:ignore waiver
//	                        with its reason (combine with -json)
//	gslint -list            list analyzers and their package scopes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonWaiver is the -json wire form of one //lint:ignore suppression.
type jsonWaiver struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

func main() {
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		only    = flag.String("only", "", "comma-separated analyzer names to run (default all)")
		jsonOut = flag.Bool("json", false, "emit findings (or waivers) as JSON")
		waivers = flag.Bool("waivers", false, "list every //lint:ignore waiver instead of running analyzers")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gslint [-list] [-only a,b] [-json] [-waivers] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if len(a.Paths) > 0 {
				scope = strings.Join(a.Paths, ", ")
			}
			fmt.Printf("%-12s %s\n%13s(scope: %s)\n", a.Name, a.Doc, "", scope)
		}
		return
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				filtered = append(filtered, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "gslint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gslint: %v\n", err)
		os.Exit(2)
	}

	if *waivers {
		auditWaivers(pkgs, *jsonOut)
		return
	}

	all := analysis.RunAll(analyzers, analysis.BuildProgram(pkgs), pkgs)
	if *jsonOut {
		out := make([]jsonFinding, 0, len(all))
		for _, f := range all {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "gslint: %v\n", err)
			os.Exit(2)
		}
		return
	}
	for _, f := range all {
		fmt.Println(f)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// auditWaivers prints every suppression comment in the loaded packages.
// A waiver missing its analyzer or reason is malformed; the normal lint
// run flags those, but the audit marks them too so the listing stands
// alone.
func auditWaivers(pkgs []*analysis.Package, jsonOut bool) {
	var all []jsonWaiver
	for _, pkg := range pkgs {
		for _, w := range analysis.Waivers(pkg) {
			all = append(all, jsonWaiver{
				File:     w.Pos.Filename,
				Line:     w.Pos.Line,
				Analyzer: w.Analyzer,
				Reason:   w.Reason,
			})
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(os.Stderr, "gslint: %v\n", err)
			os.Exit(2)
		}
		return
	}
	for _, w := range all {
		analyzer, reason := w.Analyzer, w.Reason
		if analyzer == "" {
			analyzer, reason = "MALFORMED", "(missing analyzer or reason)"
		}
		fmt.Printf("%s:%d: %s: %s\n", w.File, w.Line, analyzer, reason)
	}
}
