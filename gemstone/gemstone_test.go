package gemstone

import (
	"strings"
	"testing"
)

func openDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func login(t testing.TB, db *DB) *Session {
	t.Helper()
	s, err := db.Login(SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	db := openDB(t)
	s := login(t, db)
	s.MustRun(`Object subclass: 'Employee' instVarNames: #('name' 'salary')`)
	s.MustRun(`Employee compile: 'name: n salary: s name := n. salary := s'`)
	s.MustRun(`| e | e := Employee new. e name: 'Ellen' salary: 24650. World at: #ellen put: e`)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run("World!ellen!name")
	if err != nil || got != "'Ellen'" {
		t.Errorf("= %q (%v)", got, err)
	}
}

func TestExecuteResultAndOutput(t *testing.T) {
	db := openDB(t)
	s := login(t, db)
	r, err := s.Execute("Transcript show: 'hi'. 3 + 4")
	if err != nil {
		t.Fatal(err)
	}
	if r.Printed != "7" || r.Output != "hi" {
		t.Errorf("result = %+v", r)
	}
	// Errors still return output produced before the failure.
	r, err = s.Execute("Transcript show: 'pre'. nil explode")
	if err == nil {
		t.Error("expected error")
	}
	if r.Output != "pre" {
		t.Errorf("output = %q", r.Output)
	}
}

func TestQueryAPI(t *testing.T) {
	db := openDB(t)
	s := login(t, db)
	s.MustRun(`| emps e |
		emps := Dictionary new. World at: #Employees put: emps.
		e := Dictionary new. e at: #Salary put: 100. emps at: 'E1' put: e.
		e := Dictionary new. e at: #Salary put: 300. emps at: 'E2' put: e`)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Query("{E: e} where (e in World!Employees) and e!Salary > 200")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	sal, err := s.Path("e!Salary", map[string]Value{"e": rows[0]["E"]})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.Print(sal)
	if p != "300" {
		t.Errorf("salary = %s", p)
	}
	naive, err := s.QueryNaive("{E: e} where (e in World!Employees) and e!Salary > 200")
	if err != nil || len(naive) != 1 {
		t.Errorf("naive rows = %v (%v)", naive, err)
	}
	plan, err := s.Explain("{E: e} where (e in World!Employees) and e!Salary > 200")
	if err != nil || !strings.Contains(plan, "scan") {
		t.Errorf("plan = %q (%v)", plan, err)
	}
}

func TestPathAssignAndTimeDial(t *testing.T) {
	db := openDB(t)
	s := login(t, db)
	s.MustRun(`World at: #acme put: Dictionary new`)
	acme, err := s.Path("World!acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = acme
	if err := s.PathAssign("World!acme!president", mustStr(t, s, "Ayn"), nil); err != nil {
		t.Fatal(err)
	}
	t1, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PathAssign("World!acme!president", mustStr(t, s, "Milton"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTimeDial(t1); err != nil {
		t.Fatal(err)
	}
	v, err := s.Path("World!acme!president", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.Print(v)
	if p != "'Ayn'" {
		t.Errorf("dialed president = %s", p)
	}
	if err := s.SetTimeDial(Now); err != nil {
		t.Fatal(err)
	}
	if s.SafeTime() == 0 {
		t.Error("SafeTime zero")
	}
}

func mustStr(t testing.TB, s *Session, str string) Value {
	t.Helper()
	v, err := s.Core().NewString(str)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCreateUserAndIsolation(t *testing.T) {
	db := openDB(t)
	if err := db.CreateUser("alice", "apw"); err != nil {
		t.Fatal(err)
	}
	as, err := db.Login("alice", "apw")
	if err != nil {
		t.Fatal(err)
	}
	as.MustRun(`| o | o := Object new. o at: #v put: 42. World at: #aliceData put: o`)
	if _, err := as.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateUser("bob", "bpw"); err != nil {
		t.Fatal(err)
	}
	bs, err := db.Login("bob", "bpw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Run("World!aliceData!v"); err == nil {
		t.Error("bob read alice's segment")
	}
	if _, err := db.Login("alice", "wrong"); err == nil {
		t.Error("bad password accepted")
	}
}

func TestCreateIndexAPI(t *testing.T) {
	db := openDB(t)
	s := login(t, db)
	s.MustRun(`| emps e |
		emps := Set new. World at: #emps put: emps.
		1 to: 50 do: [:i | e := Dictionary new. e at: #salary put: i. emps add: e]`)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("World!emps", []string{"salary"}); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Explain("{E: e} where (e in World!emps) and e!salary = 25")
	if err != nil || !strings.Contains(plan, "index-scan") {
		t.Errorf("plan = %q (%v)", plan, err)
	}
}

func TestTwoSessionsConflict(t *testing.T) {
	db := openDB(t)
	a := login(t, db)
	b := login(t, db)
	a.MustRun("World at: #k put: 0")
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// Both sessions write the same element; the second committer loses.
	a.MustRun("World at: #k put: 1")
	b.MustRun("World at: #k put: 2")
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); err == nil {
		t.Error("second committer should conflict")
	}
	// After refresh b can retry.
	b.MustRun("World at: #k put: 2")
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// a's snapshot predates b's commit (snapshot isolation); refreshing the
	// transaction reveals the new state.
	if out, _ := a.Run("World!k"); out != "1" {
		t.Errorf("pre-refresh k = %s, want snapshot value 1", out)
	}
	a.Abort()
	if out, _ := a.Run("World!k"); out != "2" {
		t.Errorf("post-refresh k = %s", out)
	}
}

func TestReopenKeepsImage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.Login(SystemUser, "swordfish")
	s.MustRun("World at: #x put: 7")
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, _ := db2.Login(SystemUser, "swordfish")
	if out, _ := s2.Run("World!x"); out != "7" {
		t.Errorf("x = %s", out)
	}
	// Kernel image still works (collection protocol compiled from stored
	// sources).
	if out, _ := s2.Run("#(1 2 3) collect: [:i | i * 2]"); out != "an OrderedCollection( 2 4 6 )" {
		t.Errorf("= %s", out)
	}
}

func TestHistoryAPI(t *testing.T) {
	db := openDB(t)
	s := login(t, db)
	s.MustRun("World at: #e put: (Object new at: #v put: 1; yourself)")
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.MustRun("World!e at: #v put: 2")
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e, err := s.Path("World!e", nil)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := s.History(e, "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].T >= hist[1].T {
		t.Fatalf("history = %+v", hist)
	}
	p0, _ := s.Print(hist[0].Value)
	p1, _ := s.Print(hist[1].Value)
	if p0 != "1" || p1 != "2" {
		t.Errorf("values = %s %s", p0, p1)
	}
}

// TestNoSessionLeaks pins the session-lifecycle invariant the sessionlife
// analyzer checks statically: no public entry point leaves a transaction
// pinned in the Transaction Manager. A leaked session pins the validation
// log, so it grows with every later commit — the bug class fixed in Open's
// and Login's interpreter-error branches.
func TestNoSessionLeaks(t *testing.T) {
	db := openDB(t)
	active := func() int { return db.Core().TxnManager().ActiveCount() }
	if n := active(); n != 0 {
		t.Fatalf("Open left %d bootstrap transaction(s) active", n)
	}
	if err := db.CreateUser("carol", "pw"); err != nil {
		t.Fatal(err)
	}
	if n := active(); n != 0 {
		t.Fatalf("CreateUser left %d transaction(s) active", n)
	}
	if _, err := db.Login("carol", "wrong-password"); err == nil {
		t.Fatal("expected failed login")
	}
	if n := active(); n != 0 {
		t.Fatalf("failed Login left %d transaction(s) active", n)
	}
	s, err := db.Login("carol", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if n := active(); n != 1 {
		t.Fatalf("one live session should pin exactly one transaction, got %d", n)
	}
	s.Close()
	if n := active(); n != 0 {
		t.Fatalf("Close left %d transaction(s) active", n)
	}
}

// A time after the last commit does not exist yet, so reading it fails
// instead of answering the live value unrecorded. S1's stale read of o!v
// can then never reach a commit that S2's later write should have failed.
func TestFutureReadCannotCommitStale(t *testing.T) {
	db := openDB(t)
	s1, s2 := login(t, db), login(t, db)
	s1.MustRun("World at: #o put: (Object new at: #v put: 1; yourself). World at: #p put: Object new")
	if _, err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	s2.Abort()
	if _, err := s1.Run("World!p at: #w put: World!o!v@1000000 + 1"); err == nil || !strings.Contains(err.Error(), "is in the future") {
		t.Errorf("read @1000000: %v, want a future-time error", err)
	}
	s2.MustRun("World!o at: #v put: 5")
	if _, err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	_, _ = s1.Commit()
	if got := s1.MustRun("World!p!w"); got != "nil" {
		t.Errorf("World!p!w = %s after S2 changed o!v: a stale read committed", got)
	}
}

// History stops at the session's snapshot, as S1's other reads do, so S1
// does not see S2's later commit; and a history read is validated like any
// other live read.
func TestHistoryStopsAtSnapshot(t *testing.T) {
	db := openDB(t)
	s1, s2 := login(t, db), login(t, db)
	s1.MustRun("World at: #o put: (Object new at: #v put: 1; yourself)")
	if _, err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	s1.MustRun("World!o at: #v put: 2")
	if _, err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	s2.Abort()
	s2.MustRun("World!o at: #v put: 3")
	if _, err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s1.MustRun("(World!o historyOf: #v) size printString , '/' , (World!o historyOf: #v) last value printString"); got != "'2/2'" {
		t.Errorf("S1 history size/last = %s, want '2/2'", got)
	}
	o, err := s1.Path("World!o", nil)
	if err != nil {
		t.Fatal(err)
	}
	if hist, err := s1.History(o, "v"); err != nil || len(hist) != 2 {
		t.Errorf("S1 History = %+v (%v), want 2 entries", hist, err)
	}
	s1.MustRun("World at: #q put: 1")
	if _, err := s1.Commit(); err == nil {
		t.Error("S1 committed after reading o's history, which S2 changed since the snapshot")
	}
	if got := s1.MustRun("(World!o historyOf: #v) size printString , '/' , World!o!v printString"); got != "'3/3'" {
		t.Errorf("history size/value after a fresh snapshot = %s, want '3/3'", got)
	}
}
