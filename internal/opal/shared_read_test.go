package opal

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/oop"
)

// TestBlocksDoNotOutliveTheirRequest: every executed block literal
// registers a closure that pins its home frame and temps. A top-level
// Execute drops the previous request's closures, so a session that runs
// the same request forever holds one request's worth, while the last
// result — itself a block here — still prints.
func TestBlocksDoNotOutliveTheirRequest(t *testing.T) {
	in := newInterp(t)
	const src = "#(1 2 3) inject: 0 into: [:a :x | a + x]"
	if _, err := in.Execute(src); err != nil {
		t.Fatal(err)
	}
	perRequest := len(in.blocks)
	if perRequest == 0 {
		t.Fatal("inject:into: registered no closures; the test measures nothing")
	}
	for i := 0; i < 1000; i++ {
		if _, err := in.Execute(src); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(in.blocks); n > perRequest {
		t.Fatalf("after 1001 requests %d closures are registered, want at most one request's %d", n, perRequest)
	}
	got, err := in.ExecuteToString("[:x | x]")
	if err != nil {
		t.Fatal(err)
	}
	if got != "aBlock(1 args)" {
		t.Errorf("block result prints as %q", got)
	}
}

// TestSharedReadPathUnderConcurrentWriters drives the lock-free read path
// (committed-object cache, symbol tables, authorization snapshot) from two
// reader sessions running sends and inject:into: while a third session
// interns, redefines and commits methods and revokes a segment. Run it
// with -race -count=10.
func TestSharedReadPathUnderConcurrentWriters(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	adminS, err := db.NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	admin, err := NewInterp(adminS)
	if err != nil {
		t.Fatal(err)
	}
	readers := []string{"reader1", "reader2"}
	for _, u := range readers {
		if err := adminS.CreateUser(u, "pw"); err != nil {
			t.Fatal(err)
		}
	}
	// A segment both readers may read, holding one object anchored at World.
	seg, err := adminS.CreateSegment(auth.Read)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range readers {
		if err := adminS.Grant(seg, u, auth.Read); err != nil {
			t.Fatal(err)
		}
	}
	secret, err := adminS.NewObjectIn(db.Kernel().Object, seg)
	if err != nil {
		t.Fatal(err)
	}
	val := adminS.Symbol("value")
	if err := adminS.Store(secret, val, oop.MustInt(42)); err != nil {
		t.Fatal(err)
	}
	world, ok := adminS.Global("World")
	if !ok {
		t.Fatal("no World")
	}
	if err := adminS.Store(world, adminS.Symbol("secret"), secret); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`Object subclass: 'Probe' instVarNames: #()`,
		`Probe compile: 'answer ^1'`,
	} {
		if _, err := admin.Execute(src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := adminS.Commit(); err != nil {
		t.Fatal(err)
	}

	const work = "| b | b := Probe new. 1 to: 20 do: [:i | b answer]. b respondsTo: #fresh. #(1 2 3 4) inject: 0 into: [:a :x | a + x]"
	redefined := make(chan struct{})
	revoked := make(chan struct{})
	ready := make(chan struct{}, len(readers))
	interps := make([]*Interp, len(readers))
	for i, u := range readers {
		s, err := db.NewSession(u, "pw")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if interps[i], err = NewInterp(s); err != nil {
			t.Fatal(err)
		}
		if v, _, err := s.Fetch(secret, val); err != nil || v != oop.MustInt(42) {
			t.Fatalf("%s before the revoke: %v, %v", u, v, err)
		}
	}
	var wg sync.WaitGroup
	for i, u := range readers {
		wg.Add(1)
		go func(u string, in *Interp) {
			s := in.Session()
			defer wg.Done()
			sawRedefinition := false
			for i := 0; ; i++ {
				_, err := in.Execute(work)
				if i == 0 {
					ready <- struct{}{}
				}
				if err != nil {
					t.Errorf("%s: %v", u, err)
					return
				}
				select {
				case <-redefined:
				default:
					continue
				}
				if !sawRedefinition {
					// The commit returned before redefined closed, so the
					// reader's next transaction sees it.
					s.Abort()
					got, err := in.ExecuteToString("Probe new answer + Probe new fresh")
					if err != nil || got != "9" {
						t.Errorf("%s after the redefinition: %q, %v; want \"9\"", u, got, err)
					}
					sawRedefinition = true
				}
				select {
				case <-revoked:
				default:
					continue
				}
				if _, _, err := s.Fetch(secret, val); !errors.Is(err, auth.ErrDenied) {
					t.Errorf("%s read the revoked segment: %v", u, err)
				}
				return
			}
		}(u, interps[i])
	}

	// Concurrent interning of one new name yields one symbol.
	const name = "internedByManyAtOnce"
	syms := make([]oop.OOP, 8)
	var interners sync.WaitGroup
	for i := range syms {
		interners.Add(1)
		go func(i int) {
			defer interners.Done()
			syms[i] = db.SymbolFor(name)
		}(i)
	}
	interners.Wait()
	for i, o := range syms {
		if o != syms[0] {
			t.Errorf("SymbolFor(%q) #%d = %v, #0 = %v", name, i, o, syms[0])
		}
	}
	if got, ok := db.SymbolName(syms[0]); !ok || got != name {
		t.Errorf("SymbolName(%v) = %q, %v", syms[0], got, ok)
	}

	// From here the readers are running: report failures with t.Error so
	// both channels still close and every reader returns.
	for range readers {
		<-ready
	}
	for _, src := range []string{
		`Probe compile: 'fresh ^7'`,
		`Probe compile: 'answer ^2'`,
	} {
		if _, err := admin.Execute(src); err != nil {
			t.Error(err)
		}
	}
	if _, err := adminS.Commit(); err != nil {
		t.Error(err)
	}
	close(redefined)
	if err := db.Auth().SetWorld(auth.SystemUser, seg, auth.None); err != nil {
		t.Error(err)
	}
	for _, u := range readers {
		if err := adminS.Grant(seg, u, auth.None); err != nil {
			t.Error(err)
		}
	}
	close(revoked)
	wg.Wait()
}
