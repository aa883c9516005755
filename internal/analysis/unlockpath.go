package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Unlockpath checks that every Lock/RLock is paired with a release on
// every path out of the acquiring function: each early return, the normal
// fall-off exit, and explicit panics. A `defer mu.Unlock()` registered on
// the path covers every later exit (including panic unwinding — the
// "panics-via-defer" case); a plain Unlock covers only the paths that
// execute it. It reads the may-held set of the lock-state pass (locks.go)
// at each exit, so it is interprocedural through the lock summaries: a
// call to a helper whose net effect releases the mutex on every return
// counts as the release, and a call to an acquire helper counts as the
// acquisition (charged to the caller, who must then release it). A
// function that deliberately returns holding a lock is reported at its
// own exits; if the design is intentional, waive it at the acquisition.
func Unlockpath(paths ...string) *Analyzer {
	return &Analyzer{
		Name:  "unlockpath",
		Doc:   "every Lock/RLock is released on every path out of the function",
		Paths: paths,
		Run:   runUnlockpath,
	}
}

type unlockFinding struct {
	pos token.Pos
	msg string
}

func runUnlockpath(pass *Pass) {
	findings := pass.Prog.Once("unlockpath", func() any {
		return computeUnlockpath(pass.Prog)
	}).([]unlockFinding)
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

func computeUnlockpath(prog *Program) []unlockFinding {
	locks := locksOf(prog)
	var out []unlockFinding
	for _, f := range prog.Funcs {
		if fl := locks.flows[f]; fl != nil {
			out = append(out, checkExits(prog.Fset, fl)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// checkExits reports every acquisition that may still be held, with no
// deferred release registered, at an exit of the function.
func checkExits(fset *token.FileSet, fl *lockFlow) []unlockFinding {
	// One finding per leaked acquisition, naming every exit it reaches.
	exits := make(map[heldLock][]string)
	for _, b := range fl.cfg.ExitPreds() {
		out, ok := fl.res.Out[b].(*lockState)
		if !ok {
			continue // unreachable exit
		}
		for t := range out.may {
			if !out.defers[t.lockKey] {
				exits[t] = append(exits[t], exitDesc(fset, b))
			}
		}
	}
	tokens := make([]heldLock, 0, len(exits))
	for t := range exits {
		tokens = append(tokens, t)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i].pos < tokens[j].pos })
	var out []unlockFinding
	for _, t := range tokens {
		descs := exits[t]
		sort.Strings(descs)
		op := "Lock"
		if t.read {
			op = "RLock"
		}
		out = append(out, unlockFinding{
			pos: t.pos,
			msg: fmt.Sprintf("%s.%s() in %s is not released on every path: still held at %s — unlock before each exit or defer the unlock",
				t.id, op, fl.fn.Name, strings.Join(descs, ", ")),
		})
	}
	return out
}

func exitDesc(fset *token.FileSet, b *Block) string {
	switch t := b.Term.(type) {
	case *ast.ReturnStmt:
		return fmt.Sprintf("the return at %s", shortPos(fset, t.Pos()))
	case *ast.CallExpr:
		return fmt.Sprintf("the panic at %s", shortPos(fset, t.Pos()))
	default:
		return "function end"
	}
}
