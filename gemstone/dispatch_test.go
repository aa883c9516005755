package gemstone

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/txn"
)

// TestDispatchPins pins what a send answers, and what it puts in the read
// set, across every event that can change a class's methods: another
// session's commit, the time dial, the session's own compile:, an abort,
// a class born in the transaction and a revoked read privilege. Each row
// sends through the class more than once before the event, so a method
// lookup remembered from an earlier send would show here.
func TestDispatchPins(t *testing.T) {
	// setup commits class C (in the session user's home segment) with
	// C>>m answering 1 and an instance at World!x, and returns the commit
	// time.
	setup := func(t *testing.T, s *Session) Time {
		t.Helper()
		s.MustRun(`Object subclass: 'C' instVarNames: #()`)
		s.MustRun(`C compile: 'm ^1'`)
		s.MustRun(`World at: #x put: C new`)
		t1, err := s.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return t1
	}
	want := func(t *testing.T, s *Session, src, answer string) {
		t.Helper()
		if got, err := s.Run(src); err != nil || got != answer {
			t.Fatalf("%s = %q (%v), want %s", src, got, err, answer)
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T, db *DB)
	}{
		{"a: another session's redefinition fails the sender's commit", func(t *testing.T, db *DB) {
			a, b := login(t, db), login(t, db)
			setup(t, a)
			want(t, a, "World!x m", "1")
			want(t, a, "World!x m", "1")
			a.MustRun("World at: #k put: 0")
			if _, err := a.Commit(); err != nil {
				t.Fatal(err)
			}
			// A fresh transaction reads C again, whatever the last one read.
			want(t, a, "World!x m", "1")
			want(t, a, "World!x m", "1")
			b.Abort()
			b.MustRun(`C compile: 'm ^2'`)
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			want(t, a, "World!x m", "1") // a's snapshot predates b's commit
			a.MustRun("World at: #k put: 1")
			if _, err := a.Commit(); !errors.Is(err, txn.ErrConflict) {
				t.Fatalf("a's commit after sending through the redefined C: %v, want a conflict", err)
			}
			want(t, a, "World!x m", "2")
		}},
		{"b: the time dial answers the method of its state", func(t *testing.T, db *DB) {
			s := login(t, db)
			t1 := setup(t, s)
			s.MustRun(`C compile: 'm ^2'`)
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			want(t, s, "World!x m", "2")
			want(t, s, "World!x m", "2")
			if err := s.SetTimeDial(t1); err != nil {
				t.Fatal(err)
			}
			want(t, s, "World!x m", "1")
			want(t, s, "World!x m", "1")
			if err := s.SetTimeDial(Now); err != nil {
				t.Fatal(err)
			}
			want(t, s, "World!x m", "2")
		}},
		{"c: compile: takes effect at once and abort restores the old method", func(t *testing.T, db *DB) {
			s := login(t, db)
			setup(t, s)
			want(t, s, "World!x m", "1")
			want(t, s, "World!x m. C compile: 'm ^2'. World!x m", "2")
			want(t, s, "World!x m", "2")
			s.Abort()
			want(t, s, "World!x m", "1")
			want(t, s, "World!x m", "1")
		}},
		{"d: a class born in the transaction answers its newest method", func(t *testing.T, db *DB) {
			s := login(t, db)
			s.MustRun(`Object subclass: 'N' instVarNames: #()`)
			s.MustRun(`N compile: 'm ^1'`)
			want(t, s, "N new m", "1")
			want(t, s, "N new m", "1")
			s.MustRun(`N compile: 'm ^2'`)
			want(t, s, "N new m", "2")
			want(t, s, "N new m. N compile: 'm ^3'. N new m", "3")
			// A class no persistent object refers to stays a transient, and
			// so do its dictionary and sources: compile: adds nothing to the
			// workspace.
			want(t, s, "| c o | c := Class new. c at: #superclass put: Object. c compile: 'm ^1'. o := c new. o m. o m. c compile: 'm ^2'. o m", "2")
			// removeSelector: adds nothing to the workspace: N's dictionary
			// is in it already.
			s.MustRun(`N removeSelector: #m`)
			if _, err := s.Run("N new m"); err == nil || !strings.Contains(err.Error(), "doesNotUnderstand: #m") {
				t.Fatalf("N new m after removeSelector: = %v, want doesNotUnderstand", err)
			}
		}},
		{"e: a revoked read privilege fails the next send", func(t *testing.T, db *DB) {
			for _, u := range []string{"alice", "bob"} {
				if err := db.CreateUser(u, u); err != nil {
					t.Fatal(err)
				}
			}
			alice, err := db.Login("alice", "alice")
			if err != nil {
				t.Fatal(err)
			}
			setup(t, alice)
			alice.MustRun("System grantTo: 'bob' privilege: 'read'")
			bob, err := db.Login("bob", "bob")
			if err != nil {
				t.Fatal(err)
			}
			bob.MustRun("World at: #bx put: C new") // in bob's segment, readable after the revoke
			if _, err := bob.Commit(); err != nil {
				t.Fatal(err)
			}
			want(t, bob, "World!bx m", "1")
			want(t, bob, "World!bx m", "1")
			alice.MustRun("System grantTo: 'bob' privilege: 'none'")
			if _, err := bob.Run("World!bx m"); err == nil || !strings.Contains(err.Error(), "auth: access denied") {
				t.Fatalf("send through a class bob can no longer read: %v, want auth: access denied", err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(t, openDB(t)) })
	}
}
