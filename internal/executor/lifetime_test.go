package executor

import (
	"testing"

	"repro/gemstone"
)

// transients is the number of transients the session id holds.
func transients(t *testing.T, e *Executor, id SessionID) int {
	t.Helper()
	r, err := e.session(id)
	if err != nil {
		t.Fatal(err)
	}
	return r.se.Core().Transients()
}

func login(t *testing.T, e *Executor) SessionID {
	t.Helper()
	id, err := e.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// build50 makes a 50-element transient Array of fresh strings.
const build50 = "| a | a := Array new: 50. 1 to: 50 do: [:i | a at: i put: i printString]. "

// TestTransientsDieWithTheirRequest: a request's client gets text only,
// so what the request made and did not store into persistent state is
// gone once it returns. A session that runs a thousand requests holds none
// of their transients.
func TestTransientsDieWithTheirRequest(t *testing.T) {
	e := newExec(t)
	id := login(t, e)
	for i := 0; i < 1000; i++ {
		if res, _, err := e.Execute(id, build50+"(a at: 50) size"); err != nil || res != "2" {
			t.Fatalf("request %d = %q (%v)", i, res, err)
		}
		if n := transients(t, e, id); n != 0 {
			t.Fatalf("after request %d the session holds %d transients, want 0", i, n)
		}
	}
}

// TestStoredTransientOutlivesItsRequest: a transient stored into World is
// promoted, so the next request still reads it and the commit writes it.
func TestStoredTransientOutlivesItsRequest(t *testing.T) {
	e := newExec(t)
	id := login(t, e)
	if _, _, err := e.Execute(id, build50+"World at: #kept put: a. a size"); err != nil {
		t.Fatal(err)
	}
	if res, _, err := e.Execute(id, "World!kept!50"); err != nil || res != "'50'" {
		t.Fatalf("second request reads %q (%v), want '50'", res, err)
	}
	if _, err := e.Commit(id); err != nil {
		t.Fatal(err)
	}
	other := login(t, e)
	if res, _, err := e.Execute(other, "World!kept!1"); err != nil || res != "'1'" {
		t.Fatalf("another session reads %q (%v), want '1'", res, err)
	}
}

// TestAbortThenRequest: an abort demotes what the transaction promoted back
// into the transient space; the next request drops it and the session goes
// on working.
func TestAbortThenRequest(t *testing.T) {
	e := newExec(t)
	id := login(t, e)
	if _, _, err := e.Execute(id, build50+"World at: #gone put: a. a size"); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(id); err != nil {
		t.Fatal(err)
	}
	if res, _, err := e.Execute(id, "World at: #gone ifAbsent: [0]"); err != nil || res != "0" {
		t.Fatalf("after abort World!gone = %q (%v), want 0", res, err)
	}
	if n := transients(t, e, id); n != 0 {
		t.Errorf("after abort and a request the session holds %d transients, want 0", n)
	}
	if _, _, err := e.Execute(id, build50+"World at: #kept put: a. a size"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(id); err != nil {
		t.Fatal(err)
	}
	if res, _, err := e.Execute(id, "World!kept!2"); err != nil || res != "'2'" {
		t.Fatalf("after commit World!kept!2 = %q (%v), want '2'", res, err)
	}
}

// TestFailedRequestDropsTransients: a request that fails mid-block still
// ends, and what it made goes with it.
func TestFailedRequestDropsTransients(t *testing.T) {
	e := newExec(t)
	id := login(t, e)
	if _, _, err := e.Execute(id, build50+"a foo"); err == nil {
		t.Fatal("a send of #foo to an Array succeeded")
	}
	if n := transients(t, e, id); n != 0 {
		t.Errorf("after a failed request the session holds %d transients, want 0", n)
	}
	if res, _, err := e.Execute(id, "3 + 4"); err != nil || res != "7" {
		t.Errorf("next request = %q (%v)", res, err)
	}
}
