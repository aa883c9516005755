package analysis

import (
	"strings"
	"testing"
)

// The seeded deadlock: one call chain takes A then (via a helper) B, the
// other takes B then A. The analyzer must report ONE cycle finding whose
// message carries both witness chains.
const deadlockFixture = `package fx

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

type Sys struct {
	a A
	b B
}

func (s *Sys) lockB() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
}

func (s *Sys) CommitPath() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.lockB()
}

func (s *Sys) ScrubPath() {
	s.b.mu.Lock()
	s.a.mu.Lock()
	s.a.mu.Unlock()
	s.b.mu.Unlock()
}
`

func TestLockorderCycle(t *testing.T) {
	got := checkFixture(t, "repro/fx", deadlockFixture, Lockorder())
	wantFindings(t, got, "lock-order cycle")
	msg := got[0].Message
	for _, witness := range []string{
		"fx.A.mu → fx.B.mu → fx.A.mu",
		"CommitPath", "lockB", "ScrubPath",
	} {
		if !strings.Contains(msg, witness) {
			t.Errorf("cycle message missing %q:\n%s", witness, msg)
		}
	}
}

// Consistent ordering on the same locks is clean.
const orderedFixture = `package fx

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

type Sys struct {
	a A
	b B
}

func (s *Sys) lockB() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
}

func (s *Sys) One() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.lockB()
}

func (s *Sys) Two() {
	s.a.mu.Lock()
	s.b.mu.Lock()
	s.b.mu.Unlock()
	s.a.mu.Unlock()
}
`

func TestLockorderConsistentOrderClean(t *testing.T) {
	wantFindings(t, checkFixture(t, "repro/fx", orderedFixture, Lockorder()))
}

// Re-acquiring a held mutex through a call chain self-deadlocks.
const recursiveFixture = `package fx

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) helper() {
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *S) Outer() {
	s.mu.Lock()
	s.helper()
	s.mu.Unlock()
}
`

func TestLockorderRecursiveAcquire(t *testing.T) {
	got := checkFixture(t, "repro/fx", recursiveFixture, Lockorder())
	wantFindings(t, got, "re-acquired while already held")
	if !strings.Contains(got[0].Message, "helper") {
		t.Errorf("witness should name the re-acquiring callee:\n%s", got[0].Message)
	}
}

// A released lock is not held: Unlock before the second acquisition keeps
// the graph edge-free even position-wise.
const releasedFixture = `package fx

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

type Sys struct {
	a A
	b B
}

func (s *Sys) One() {
	s.a.mu.Lock()
	s.a.mu.Unlock()
	s.b.mu.Lock()
	s.b.mu.Unlock()
}

func (s *Sys) Two() {
	s.b.mu.Lock()
	s.b.mu.Unlock()
	s.a.mu.Lock()
	s.a.mu.Unlock()
}
`

func TestLockorderReleaseEndsHeldRange(t *testing.T) {
	wantFindings(t, checkFixture(t, "repro/fx", releasedFixture, Lockorder()))
}

// The cycle crossing a package boundary is still found: fxa holds its own
// lock and calls into fxb; fxb holds its lock and calls back into fxa.
func TestLockorderCrossPackageCycle(t *testing.T) {
	got := checkFixtures(t, []fixturePkg{
		{path: "repro/fxa", src: `package fxa

import "sync"

type Store struct{ Mu sync.Mutex }

func (s *Store) LockedOp() {
	s.Mu.Lock()
	defer s.Mu.Unlock()
}
`},
		{path: "repro/fxb", src: `package fxb

import (
	"sync"

	"repro/fxa"
)

type DB struct {
	mu sync.Mutex
	st *fxa.Store
}

func (d *DB) Commit() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.LockedOp()
}

func (d *DB) lockSelf() {
	d.mu.Lock()
	defer d.mu.Unlock()
}

// Back edge: fxa's lock held, then fxb's taken (via a local helper on
// the DB the store points back to — simulated directly here).
func Reverse(s *fxa.Store, d *DB) {
	s.Mu.Lock()
	d.lockSelf()
	s.Mu.Unlock()
}
`},
	}, Lockorder())
	wantFindings(t, got, "lock-order cycle")
	msg := got[0].Message
	if !strings.Contains(msg, "fxa.Store.Mu") || !strings.Contains(msg, "fxb.DB.mu") {
		t.Errorf("cross-package cycle should name both packages' locks:\n%s", msg)
	}
}

// A waiver on the reported edge suppresses the cycle.
func TestLockorderWaiver(t *testing.T) {
	waived := strings.Replace(deadlockFixture,
		"func (s *Sys) CommitPath() {\n\ts.a.mu.Lock()",
		"func (s *Sys) CommitPath() {\n\t//lint:ignore lockorder seeded fixture: instance order is pinned elsewhere\n\ts.a.mu.Lock()", 1)
	if waived == deadlockFixture {
		t.Fatal("replacement did not apply")
	}
	wantFindings(t, checkFixture(t, "repro/fx", waived, Lockorder()))
}

// One cycle per group of mutually reachable locks, through its smallest
// lock: C lies in A's group but off its shortest cycle, so it adds none.
func TestLockCyclesOnePerGroup(t *testing.T) {
	g := &lockGraph{edges: map[[2]string]*lockEdge{}, nodes: map[string]LockID{}}
	for _, e := range [][2]string{{"A", "B"}, {"B", "A"}, {"B", "C"}, {"C", "A"}, {"C", "C"}, {"D", "E"}, {"E", "D"}, {"E", "F"}} {
		g.edges[e] = &lockEdge{}
		g.nodes[e[0]] = LockID{name: e[0]}
		g.nodes[e[1]] = LockID{name: e[1]}
	}
	var got []string
	for _, cycle := range lockCycles(g) {
		var names []string
		for _, id := range cycle {
			names = append(names, id.String())
		}
		got = append(got, strings.Join(names, "→"))
	}
	if want := "A→B D→E"; strings.Join(got, " ") != want {
		t.Fatalf("cycles = %q, want %q", got, want)
	}
}
