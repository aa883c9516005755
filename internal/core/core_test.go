package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/auth"
	"repro/internal/directory"
	"repro/internal/oop"
	"repro/internal/store"
	"repro/internal/txn"
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

func sysSession(t testing.TB, db *DB) *Session {
	t.Helper()
	s, err := db.NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// members answers set's members through MembersFunc, failing t on any
// error.
func members(t testing.TB, s *Session, set oop.OOP) []oop.OOP {
	t.Helper()
	var out []oop.OOP
	if err := s.MembersFunc(set, func(m oop.OOP) error {
		out = append(out, m)
		return nil
	}); err != nil {
		t.Fatalf("MembersFunc(%v): %v", set, err)
	}
	return out
}

// lookup answers the members bound under key through IndexLookupFunc,
// failing t on any error.
func lookup(t testing.TB, s *Session, set oop.OOP, path []string, key directory.Key) []oop.OOP {
	t.Helper()
	var out []oop.OOP
	if err := s.IndexLookupFunc(set, path, key, func(m oop.OOP) error {
		out = append(out, m)
		return nil
	}); err != nil {
		t.Fatalf("IndexLookupFunc(%v, %v): %v", set, path, err)
	}
	return out
}

func TestBootstrapKernel(t *testing.T) {
	db := openDB(t)
	k := db.Kernel()
	if !k.Object.IsHeap() || !k.Class.IsHeap() || !k.SmallInteger.IsHeap() {
		t.Fatal("kernel classes missing")
	}
	s := sysSession(t, db)
	// Class objects describe themselves.
	name, ok, err := s.Fetch(k.SmallInteger, db.wk.name)
	if err != nil || !ok {
		t.Fatalf("class name fetch: %v %v", ok, err)
	}
	if str, _ := s.SymbolName(name); str != "SmallInteger" {
		t.Errorf("class name = %q", str)
	}
	super, _, _ := s.Fetch(k.SmallInteger, db.wk.superclass)
	if super != k.Number {
		t.Error("SmallInteger superclass should be Number")
	}
	// ClassOf immediates.
	for v, want := range map[oop.OOP]oop.OOP{oop.MustInt(5): k.SmallInteger, oop.Nil: k.UndefinedObject, oop.True: k.TrueClass} {
		if got, err := s.ClassOf(v); err != nil || got != want {
			t.Errorf("ClassOf(%v) = %v (%v), want %v", v, got, err, want)
		}
	}
	if _, ok := s.Global("World"); !ok {
		t.Error("World global missing")
	}
}

func TestStoreFetchCommitCycle(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	emp, err := s.NewObject(db.Kernel().Object)
	if err != nil {
		t.Fatal(err)
	}
	nameSym := s.Symbol("name")
	str, _ := s.NewString("Ellen")
	if err := s.Store(emp, nameSym, str); err != nil {
		t.Fatal(err)
	}
	// Visible to self before commit.
	if v, ok, _ := s.Fetch(emp, nameSym); !ok || v != str {
		t.Error("own pending write invisible")
	}
	world, _ := s.Global("World")
	if err := s.Store(world, s.Symbol("ellen"), emp); err != nil {
		t.Fatal(err)
	}
	ct, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ct != 1 {
		t.Errorf("first commit time = %v", ct)
	}
	// Visible after commit in a fresh session.
	s2 := sysSession(t, db)
	got, ok, err := s2.Fetch(world, s2.Symbol("ellen"))
	if err != nil || !ok || got != emp {
		t.Fatalf("committed object not visible: %v %v %v", got, ok, err)
	}
	b, err := s2.BytesOf(str)
	if err != nil || string(b) != "Ellen" {
		t.Errorf("string payload: %q %v", b, err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := openDB(t)
	s1 := sysSession(t, db)
	world, _ := s1.Global("World")
	sym := s1.Symbol("x")
	if err := s1.Store(world, sym, oop.MustInt(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Commit(); err != nil {
		t.Fatal(err)
	}

	reader := sysSession(t, db)
	if v, _, _ := reader.Fetch(world, sym); v != oop.MustInt(1) {
		t.Fatal("reader sees wrong initial value")
	}
	writer := sysSession(t, db)
	if err := writer.Store(world, sym, oop.MustInt(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// The reader's snapshot predates the write: it must still see 1.
	if v, _, _ := reader.Fetch(world, sym); v != oop.MustInt(1) {
		t.Error("snapshot isolation violated")
	}
	// And committing that stale read conflicts.
	if _, err := reader.Commit(); !errors.Is(err, txn.ErrConflict) {
		t.Errorf("stale reader commit: %v", err)
	}
	// A fresh transaction sees the new value.
	if v, _, _ := reader.Fetch(world, sym); v != oop.MustInt(2) {
		t.Error("post-refresh read wrong")
	}
	if _, err := reader.Commit(); err != nil {
		t.Errorf("clean read-only commit: %v", err)
	}
}

func TestWriteConflictAborts(t *testing.T) {
	db := openDB(t)
	s0 := sysSession(t, db)
	world, _ := s0.Global("World")
	sym := s0.Symbol("y")
	_ = s0.Store(world, sym, oop.MustInt(0))
	if _, err := s0.Commit(); err != nil {
		t.Fatal(err)
	}
	a := sysSession(t, db)
	b := sysSession(t, db)
	_ = a.Store(world, sym, oop.MustInt(10))
	_ = b.Store(world, sym, oop.MustInt(20))
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// b's retry on a fresh snapshot succeeds.
	_ = b.Store(world, sym, oop.MustInt(20))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	s := sysSession(t, db)
	if v, _, _ := s.Fetch(world, sym); v != oop.MustInt(20) {
		t.Error("retry value lost")
	}
}

func TestAbortDiscardsWorkspace(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	sym := s.Symbol("z")
	_ = s.Store(world, sym, oop.MustInt(7))
	s.Abort()
	if v, ok, _ := s.Fetch(world, sym); ok && v != oop.Nil {
		t.Errorf("aborted write visible: %v", v)
	}
}

// TestFigure1 reproduces the paper's Figure 1 database at the Object
// Manager level: president changes, employee history, the nil-removal.
func TestFigure1(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	acme, _ := s.NewObject(db.Kernel().Dictionary)
	employees, _ := s.NewObject(db.Kernel().Dictionary)
	ayn, _ := s.NewObject(db.Kernel().Object)
	milton, _ := s.NewObject(db.Kernel().Object)

	acmeSym := s.Symbol("Acme Corp")
	presSym := s.Symbol("president")
	empsSym := s.Symbol("employees")
	citySym := s.Symbol("city")
	nameSym := s.Symbol("name")
	e1821 := s.Symbol("1821")

	_ = s.Store(world, acmeSym, acme)
	_ = s.Store(acme, empsSym, employees)
	aynName, _ := s.NewString("Ayn Rand")
	miltonName, _ := s.NewString("Milton Friedman")
	_ = s.Store(ayn, nameSym, aynName)
	_ = s.Store(milton, nameSym, miltonName)
	// A clock object, disjoint from the Acme graph, lets filler commits
	// drive the transaction counter to the paper's times without
	// conflicting with the main session.
	clock, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(world, s.Symbol("__clock"), clock)
	if ct, err := s.Commit(); err != nil || ct != 1 {
		t.Fatalf("setup commit: %v %v", ct, err)
	}
	pad := func(until oop.Time) {
		for db.TxnManager().LastCommitted() < until-1 {
			f := sysSession(t, db)
			_ = f.Store(clock, f.Symbol("tick"), oop.MustInt(int64(db.TxnManager().LastCommitted())))
			if _, err := f.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// t=2: Ayn joins as employee 1821, in Seattle... (paper: employee from 2).
	pad(2)
	seattle, _ := s.NewString("Seattle")
	_ = s.Store(employees, e1821, ayn)
	_ = s.Store(ayn, citySym, seattle)
	_ = s.Store(milton, citySym, seattle) // Milton had worked in Seattle
	if ct, err := s.Commit(); err != nil || ct != 2 {
		t.Fatalf("commit t=2: %v %v", ct, err)
	}

	// t=5: Ayn becomes president.
	pad(5)
	_ = s.Store(acme, presSym, ayn)
	if ct, err := s.Commit(); err != nil || ct != 5 {
		t.Fatalf("commit t=5: %v %v", ct, err)
	}

	// t=8: Milton becomes president (moving to Portland); Ayn leaves.
	pad(8)
	portland, _ := s.NewString("Portland")
	_ = s.Store(acme, presSym, milton)
	_ = s.Store(milton, citySym, portland)
	_ = s.Remove(employees, e1821)
	if ct, err := s.Commit(); err != nil || ct != 8 {
		t.Fatalf("commit t=8: %v %v", ct, err)
	}

	// t=11: Ayn moves to San Diego.
	pad(11)
	sandiego, _ := s.NewString("San Diego")
	_ = s.Store(ayn, citySym, sandiego)
	if ct, err := s.Commit(); err != nil || ct != 11 {
		t.Fatalf("commit t=11: %v %v", ct, err)
	}

	// --- The paper's path expression queries (§5.3.2) ---
	q := sysSession(t, db)
	// World!'Acme Corp'!president -> Milton
	pres, _, _ := q.Fetch(acme, presSym)
	if pres != milton {
		t.Error("current president should be Milton")
	}
	// ...@10 -> Milton (the new president)
	if v, _, _ := q.FetchAt(acme, presSym, 10); v != milton {
		t.Error("president@10 should be Milton")
	}
	// ...@7 -> Ayn (the previous president)
	if v, _, _ := q.FetchAt(acme, presSym, 7); v != ayn {
		t.Error("president@7 should be Ayn")
	}
	// World!'Acme Corp'!president@7!city -> San Diego (Ayn's CURRENT city).
	prev, _, _ := q.FetchAt(acme, presSym, 7)
	city, _, _ := q.Fetch(prev, citySym)
	if city != sandiego {
		t.Error("previous president's current city should be San Diego")
	}
	// Employee 1821 present at 5, removed (nil) from 8.
	if v, ok, _ := q.FetchAt(employees, e1821, 5); !ok || v != ayn {
		t.Error("employee 1821 missing at t=5")
	}
	if v, ok, _ := q.FetchAt(employees, e1821, 9); !ok || v != oop.Nil {
		t.Error("employee 1821 should read nil after t=8")
	}

	// --- Time dial (§5.4) ---
	if err := q.SetTimeDial(7); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := q.Fetch(acme, presSym); v != ayn {
		t.Error("dialed fetch should see Ayn as president")
	}
	// Writes to persistent objects under a dialed session are forbidden;
	// session-private transients may still be created and used.
	if err := q.Store(acme, presSym, ayn); !errors.Is(err, ErrReadOnlyDial) {
		t.Errorf("dialed write: %v", err)
	}
	tmp, err := q.NewObject(db.Kernel().Object)
	if err != nil {
		t.Errorf("dialed transient create should be allowed: %v", err)
	}
	if err := q.Store(tmp, presSym, oop.MustInt(1)); err != nil {
		t.Errorf("dialed transient write should be allowed: %v", err)
	}
	// Dialing into the future is rejected.
	if err := q.SetTimeDial(99); err == nil {
		t.Error("future dial accepted")
	}
	_ = q.SetTimeDial(oop.TimeNow)
	if v, _, _ := q.Fetch(acme, presSym); v != milton {
		t.Error("dial back to now failed")
	}
}

func TestSafeTimeDial(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("k"), oop.MustInt(1))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.SafeTime(); st != 1 {
		t.Errorf("SafeTime = %v", st)
	}
	if err := s.SetTimeDial(s.SafeTime()); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	world, _ := s.Global("World")
	deptSym := s.Symbol("Sales")
	dept, _ := s.NewObject(db.Kernel().Dictionary)
	budget := s.Symbol("budget")
	_ = s.Store(dept, budget, oop.MustInt(142000))
	_ = s.Store(world, deptSym, dept)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = s.Store(dept, budget, oop.MustInt(150000))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := db2.NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	world2, ok := s2.Global("World")
	if !ok || world2 != world {
		t.Fatal("World identity changed across reopen")
	}
	// Symbols re-intern to the same OOPs.
	if s2.Symbol("Sales") != deptSym {
		t.Error("symbol identity lost across reopen")
	}
	d, ok, _ := s2.Fetch(world2, s2.Symbol("Sales"))
	if !ok || d != dept {
		t.Fatal("object identity lost across reopen")
	}
	if v, _, _ := s2.Fetch(d, s2.Symbol("budget")); v != oop.MustInt(150000) {
		t.Error("current budget wrong after reopen")
	}
	// History survives reopen.
	if v, _, _ := s2.FetchAt(d, s2.Symbol("budget"), 1); v != oop.MustInt(142000) {
		t.Error("budget history lost across reopen")
	}
}

func TestAuthorizationEnforced(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	if err := s.CreateUser("alice", "apw"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateUser("bob", "bpw"); err != nil {
		t.Fatal(err)
	}
	as, err := db.NewSession("alice", "apw")
	if err != nil {
		t.Fatal(err)
	}
	secret, err := as.NewObject(db.Kernel().Object)
	if err != nil {
		t.Fatal(err)
	}
	_ = as.Store(secret, as.Symbol("v"), oop.MustInt(42))
	// Attach to the (world-writable) World so it persists; the object
	// itself stays in alice's segment, so authorization still applies.
	world, _ := as.Global("World")
	if err := as.Store(world, as.Symbol("secret"), secret); err != nil {
		t.Fatal(err)
	}
	// A set of alice's with a directory on it.
	emps, _ := as.NewObject(db.Kernel().Set)
	_, _ = as.AddToSet(emps, secret)
	if err := as.Store(world, as.Symbol("emps"), emps); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := as.CreateIndex(emps, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	bs, err := db.NewSession("bob", "bpw")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bs.Fetch(secret, bs.Symbol("v")); !errors.Is(err, auth.ErrDenied) {
		t.Errorf("bob read alice's object: %v", err)
	}
	// Streaming reads of her set, by scan or through the directory, fail
	// with the denial; they do not answer no members.
	keep := func(oop.OOP) error { return nil }
	key := directory.NumberKey(42)
	for name, err := range map[string]error{
		"MembersFunc":     bs.MembersFunc(emps, keep),
		"IndexLookupFunc": bs.IndexLookupFunc(emps, []string{"v"}, key, keep),
		"IndexRangeFunc":  bs.IndexRangeFunc(emps, []string{"v"}, &key, nil, true, true, keep),
	} {
		if !errors.Is(err, auth.ErrDenied) {
			t.Errorf("bob's %s on alice's set = %v, want %v", name, err, auth.ErrDenied)
		}
	}
	if got := lookup(t, as, emps, []string{"v"}, key); len(got) != 1 {
		t.Errorf("alice's lookup(42) = %v", got)
	}
	// Grant read: fetch works, store still denied.
	home, _ := db.Auth().HomeSegment("alice")
	if err := as.Grant(home, "bob", auth.Read); err != nil {
		t.Fatal(err)
	}
	if v, _, err := bs.Fetch(secret, bs.Symbol("v")); err != nil || v != oop.MustInt(42) {
		t.Errorf("bob read after grant: %v %v", v, err)
	}
	if err := bs.Store(secret, bs.Symbol("v"), oop.MustInt(1)); !errors.Is(err, auth.ErrDenied) {
		t.Errorf("bob wrote with read grant: %v", err)
	}
	// Bad login.
	if _, err := db.NewSession("alice", "wrong"); !errors.Is(err, auth.ErrNoUser) {
		t.Errorf("bad login: %v", err)
	}
}

func TestAuthSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.NewSession(auth.SystemUser, "swordfish")
	if err := s.CreateUser("alice", "apw"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.NewSession("alice", "apw"); err != nil {
		t.Errorf("alice lost across reopen: %v", err)
	}
}

func TestSharedComponentIdentity(t *testing.T) {
	// Paper §4.2: "if two objects share a component, updates to that
	// component through one object are visible in the other object."
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	dept, _ := s.NewObject(db.Kernel().Dictionary)
	nameS, _ := s.NewString("Sales")
	_ = s.Store(dept, s.Symbol("name"), nameS)
	e1, _ := s.NewObject(db.Kernel().Object)
	e2, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(e1, s.Symbol("dept"), dept)
	_ = s.Store(e2, s.Symbol("dept"), dept)
	_ = s.Store(world, s.Symbol("e1"), e1)
	_ = s.Store(world, s.Symbol("e2"), e2)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Update the department's budget through e1's reference.
	d1, _, _ := s.Fetch(e1, s.Symbol("dept"))
	_ = s.Store(d1, s.Symbol("budget"), oop.MustInt(99))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Visible through e2 — same entity.
	d2, _, _ := s.Fetch(e2, s.Symbol("dept"))
	if d1 != d2 {
		t.Fatal("entity identity broken")
	}
	if v, _, _ := s.Fetch(d2, s.Symbol("budget")); v != oop.MustInt(99) {
		t.Error("shared update invisible through second parent")
	}
}

func TestAddToSetAliases(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	set, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(world, s.Symbol("things"), set)
	var aliases []oop.OOP
	for i := 0; i < 5; i++ {
		a, err := s.AddToSet(set, oop.MustInt(int64(i*10)))
		if err != nil {
			t.Fatal(err)
		}
		aliases = append(aliases, a)
	}
	seen := map[oop.OOP]bool{}
	for _, a := range aliases {
		if seen[a] {
			t.Fatal("alias collision")
		}
		seen[a] = true
	}
	if ms := members(t, s, set); len(ms) != 5 {
		t.Fatalf("members = %v", ms)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Remove one; history retains it.
	if err := s.RemoveFromSet(set, aliases[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if ms := members(t, s, set); len(ms) != 4 {
		t.Errorf("after removal: %d members", len(ms))
	}
	_ = s.SetTimeDial(1)
	if ms := members(t, s, set); len(ms) != 5 {
		t.Errorf("at t=1: %d members, want 5", len(ms))
	}
}

func TestIndexMaintainedAcrossCommits(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	emps, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(world, s.Symbol("emps"), emps)
	mkEmp := func(salary int64) oop.OOP {
		e, _ := s.NewObject(db.Kernel().Object)
		_ = s.Store(e, s.Symbol("salary"), oop.MustInt(salary))
		_, _ = s.AddToSet(emps, e)
		return e
	}
	e1 := mkEmp(100)
	e2 := mkEmp(200)
	_ = mkEmp(200)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(emps, []string{"salary"}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(200)); len(got) != 2 {
		t.Fatalf("lookup(200) = %v", got)
	}
	// Update a salary: directory must follow (dependency on member object).
	_ = s.Store(e2, s.Symbol("salary"), oop.MustInt(300))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(200)); len(got) != 1 {
		t.Errorf("lookup(200) after move = %v", got)
	}
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(300)); len(got) != 1 || got[0] != e2 {
		t.Errorf("lookup(300) = %v", got)
	}
	// New member after index creation.
	e4, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(e4, s.Symbol("salary"), oop.MustInt(100))
	_, _ = s.AddToSet(emps, e4)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(100)); len(got) != 2 {
		t.Errorf("lookup(100) after add = %v", got)
	}
	// Historical lookup: at the first commit, e2 had salary 200.
	_ = s.SetTimeDial(1)
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(200)); len(got) != 2 {
		t.Errorf("dialed lookup(200) = %v", got)
	}
	_ = s.SetTimeDial(oop.TimeNow)
	// Range query.
	// Salaries now: e1=100, e2=300, e3=200, e4=100.
	lo := directory.NumberKey(150)
	var inRange []oop.OOP
	if err := s.IndexRangeFunc(emps, []string{"salary"}, &lo, nil, true, true, func(m oop.OOP) error {
		inRange = append(inRange, m)
		return nil
	}); err != nil || len(inRange) != 2 {
		t.Errorf("range [150,inf) = %v (%v)", inRange, err)
	}
	_ = e1
}

func TestIndexNestedPathDependency(t *testing.T) {
	// Index employees by dept!name where name is a String object: the §6
	// "nested element as discriminator" case, including re-keying when the
	// *nested* object changes.
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	emps, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(world, s.Symbol("emps"), emps)
	dept, _ := s.NewObject(db.Kernel().Dictionary)
	dname, _ := s.NewString("Sales")
	_ = s.Store(dept, s.Symbol("name"), dname)
	e, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(e, s.Symbol("dept"), dept)
	_, _ = s.AddToSet(emps, e)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(emps, []string{"dept", "name"}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s, emps, []string{"dept", "name"}, directory.StringKey("Sales")); len(got) != 1 {
		t.Fatal("initial nested lookup failed")
	}
	// Rename the department by mutating the shared String: the index key
	// must follow even though neither the set nor the member was written.
	if err := s.SetBytes(dname, []byte("Marketing")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s, emps, []string{"dept", "name"}, directory.StringKey("Sales")); len(got) != 0 {
		t.Error("stale key after nested byte change")
	}
	if got := lookup(t, s, emps, []string{"dept", "name"}, directory.StringKey("Marketing")); len(got) != 1 {
		t.Error("new key missing after nested byte change")
	}
	// Swap the dept object itself.
	dept2, _ := s.NewObject(db.Kernel().Dictionary)
	dname2, _ := s.NewString("Research")
	_ = s.Store(dept2, s.Symbol("name"), dname2)
	_ = s.Store(e, s.Symbol("dept"), dept2)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s, emps, []string{"dept", "name"}, directory.StringKey("Research")); len(got) != 1 {
		t.Error("re-keying after intermediate swap failed")
	}
	// And the old history is still queryable.
	_ = s.SetTimeDial(1)
	if got := lookup(t, s, emps, []string{"dept", "name"}, directory.StringKey("Sales")); len(got) != 1 {
		t.Error("historical nested lookup failed")
	}
}

func TestIndexRebuildOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := db.NewSession(auth.SystemUser, "swordfish")
	world, _ := s.Global("World")
	emps, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(world, s.Symbol("emps"), emps)
	var e oop.OOP
	for i := int64(1); i <= 3; i++ {
		e, _ = s.NewObject(db.Kernel().Object)
		_ = s.Store(e, s.Symbol("salary"), oop.MustInt(i*100))
		_, _ = s.AddToSet(emps, e)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(emps, []string{"salary"}); err != nil {
		t.Fatal(err)
	}
	// A post-index change, so the rebuilt index must include history.
	_ = s.Store(e, s.Symbol("salary"), oop.MustInt(999))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, _ := db2.NewSession(auth.SystemUser, "swordfish")
	if got := lookup(t, s2, emps, []string{"salary"}, directory.NumberKey(999)); len(got) != 1 {
		t.Errorf("rebuilt index lookup(999) = %v", got)
	}
	if got := lookup(t, s2, emps, []string{"salary"}, directory.NumberKey(300)); len(got) != 0 {
		t.Errorf("rebuilt index lookup(300) = %v", got)
	}
	_ = s2.SetTimeDial(1)
	if got := lookup(t, s2, emps, []string{"salary"}, directory.NumberKey(300)); len(got) != 1 {
		t.Errorf("rebuilt historical lookup(300) = %v", got)
	}
	// Maintenance continues after reopen.
	_ = s2.SetTimeDial(oop.TimeNow)
	e4, _ := s2.NewObject(db2.Kernel().Object)
	_ = s2.Store(e4, s2.Symbol("salary"), oop.MustInt(500))
	_, _ = s2.AddToSet(emps, e4)
	if _, err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := lookup(t, s2, emps, []string{"salary"}, directory.NumberKey(500)); len(got) != 1 {
		t.Error("index not maintained after reopen")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	f, err := s.NewFloat(3.14159)
	if err != nil {
		t.Fatal(err)
	}
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("pi"), f)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := s.FloatValue(f)
	if err != nil || v != 3.14159 {
		t.Errorf("FloatValue = %v %v", v, err)
	}
	if cls, err := s.ClassOf(f); err != nil || cls != db.Kernel().Float {
		t.Errorf("float class = %v (%v)", cls, err)
	}
}

func TestOptionalInstanceVariables(t *testing.T) {
	// §4.3: "optional instance variables, without a storage penalty ... and
	// the ability to add new variables to existing instances".
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	a, _ := s.NewObject(db.Kernel().Object)
	b, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(a, s.Symbol("middleName"), oop.MustInt(1)) // only a has it
	_ = s.Store(world, s.Symbol("a"), a)
	_ = s.Store(world, s.Symbol("b"), b)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	an, _ := s.ElementNames(a)
	bn, _ := s.ElementNames(b)
	if len(an) != 1 || len(bn) != 0 {
		t.Errorf("element counts: a=%d b=%d", len(an), len(bn))
	}
	// Adding a new variable to an existing instance later.
	_ = s.Store(b, s.Symbol("extra"), oop.True)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Fetch(b, s.Symbol("extra")); !ok || v != oop.True {
		t.Error("late-added variable missing")
	}
}

func TestHeterogeneousValues(t *testing.T) {
	// §5.2: AssignedTo may hold an employee, a department, or a set.
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	car, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(world, s.Symbol("car"), car)
	at := s.Symbol("assignedTo")
	emp, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(car, at, emp)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	deptSet, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(car, at, deptSet)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = s.Store(car, at, oop.MustInt(7)) // even a simple value
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.FetchAt(car, at, 1); v != emp {
		t.Error("assignedTo@1")
	}
	if v, _, _ := s.FetchAt(car, at, 2); v != deptSet {
		t.Error("assignedTo@2")
	}
	if v, _, _ := s.Fetch(car, at); v != oop.MustInt(7) {
		t.Error("assignedTo now")
	}
}

func TestConcurrentSessionsThroughput(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	// Disjoint counters: no conflicts expected.
	const workers = 4
	syms := make([]oop.OOP, workers)
	for i := range syms {
		syms[i] = s.Symbol(fmt.Sprintf("ctr%d", i))
		_ = s.Store(world, syms[i], oop.MustInt(0))
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			sess, err := db.NewSession(auth.SystemUser, "swordfish")
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 10; i++ {
				ctr, _ := sess.NewObject(db.Kernel().Object)
				_ = sess.Store(ctr, syms[w], oop.MustInt(int64(i)))
				if _, err := sess.Commit(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransientWorkspaceSemantics(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	// An unattached object is never committed ("an entire session
	// workspace can be discarded", §6).
	orphan, err := s.NewObject(db.Kernel().Object)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Store(orphan, s.Symbol("v"), oop.MustInt(1))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Store().Exists(orphan) {
		t.Error("unattached transient was committed")
	}
	// But it remains usable within the session across commits.
	if v, _, err := s.Fetch(orphan, s.Symbol("v")); err != nil || v != oop.MustInt(1) {
		t.Errorf("transient unreadable after commit: %v %v", v, err)
	}
	// Attaching promotes it (and everything it references).
	child, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(child, s.Symbol("x"), oop.MustInt(2))
	_ = s.Store(orphan, s.Symbol("child"), child)
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("adopted"), orphan)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if !db.Store().Exists(orphan) || !db.Store().Exists(child) {
		t.Error("promotion did not reach the transitive closure")
	}
	// A fresh session sees the whole graph.
	s2 := sysSession(t, db)
	a, _, _ := s2.Fetch(world, s2.Symbol("adopted"))
	c, _, _ := s2.Fetch(a, s2.Symbol("child"))
	if v, _, _ := s2.Fetch(c, s2.Symbol("x")); v != oop.MustInt(2) {
		t.Error("promoted graph unreadable")
	}
}

func TestPromotionSurvivesAbort(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	obj, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(obj, s.Symbol("v"), oop.MustInt(7))
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("o"), obj) // promotes obj
	s.Abort()
	// The abort demoted obj back to the transient space: still readable,
	// not committed.
	if v, _, err := s.Fetch(obj, s.Symbol("v")); err != nil || v != oop.MustInt(7) {
		t.Errorf("demoted transient lost: %v %v", v, err)
	}
	if db.Store().Exists(obj) {
		t.Error("aborted promotion leaked to the store")
	}
	// Re-attach and commit for real.
	_ = s.Store(world, s.Symbol("o"), obj)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if !db.Store().Exists(obj) {
		t.Error("re-promotion failed")
	}
}

func TestArchiveAdmin(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	world, _ := s.Global("World")
	doc, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(doc, s.Symbol("v"), oop.MustInt(9))
	_ = s.Store(world, s.Symbol("doc"), doc)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Archive([]oop.OOP{doc}); err != nil {
		t.Fatal(err)
	}
	// Attached archive: still readable.
	if _, _, err := s.Fetch(doc, s.Symbol("v")); err != nil {
		t.Errorf("archived object with medium attached: %v", err)
	}
	if err := s.DetachArchive(); err != nil {
		t.Fatal(err)
	}
	// The shared cache may still hold it; a reopen-level check is in the
	// store tests. Here verify non-admins cannot archive.
	if err := s.CreateUser("clerk", "pw"); err != nil {
		t.Fatal(err)
	}
	cs, err := db.NewSession("clerk", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Archive([]oop.OOP{doc}); !errors.Is(err, auth.ErrDenied) {
		t.Errorf("clerk archived: %v", err)
	}
	if err := cs.DetachArchive(); !errors.Is(err, auth.ErrDenied) {
		t.Errorf("clerk detached: %v", err)
	}
}

// TestCommitCrashRecoveryAtCoreLevel drives the full session → Linker →
// store pipeline with an injected storage crash: the transaction must fail
// cleanly, consume no transaction time, leave maintained directories
// consistent with the committed state, and allow an immediate retry.
func TestCommitCrashRecoveryAtCoreLevel(t *testing.T) {
	crash := ""
	db, err := Open(t.TempDir(), Options{Store: store.Options{
		TrackSize: 1024,
		FailPoint: func(step string) error {
			if step == crash {
				return errors.New("injected")
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := sysSession(t, db)
	world, _ := s.Global("World")
	emps, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(world, s.Symbol("emps"), emps)
	e1, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(e1, s.Symbol("salary"), oop.MustInt(100))
	_, _ = s.AddToSet(emps, e1)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(emps, []string{"salary"}); err != nil {
		t.Fatal(err)
	}
	before := db.TxnManager().LastCommitted()

	// Crash during the durable apply of the next commit.
	crash = "after-data"
	e2, _ := s.NewObject(db.Kernel().Object)
	_ = s.Store(e2, s.Symbol("salary"), oop.MustInt(200))
	_, _ = s.AddToSet(emps, e2)
	if _, err := s.Commit(); err == nil {
		t.Fatal("crashing commit reported success")
	}
	crash = ""
	if got := db.TxnManager().LastCommitted(); got != before {
		t.Errorf("failed commit consumed a transaction time: %v -> %v", before, got)
	}
	// The directory still reflects only the committed state.
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(200)); len(got) != 0 {
		t.Errorf("directory leaked uncommitted entry: %v", got)
	}
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(100)); len(got) != 1 {
		t.Errorf("directory lost committed entry: %v", got)
	}
	// The session retries successfully (e2 was demoted back to transient).
	_, _ = s.AddToSet(emps, e2)
	if _, err := s.Commit(); err != nil {
		t.Fatalf("retry after crash: %v", err)
	}
	if got := lookup(t, s, emps, []string{"salary"}, directory.NumberKey(200)); len(got) != 1 {
		t.Errorf("directory missing retried entry: %v", got)
	}
}

// Committed objects and maintained directories are shared by every session,
// so reading them must not write. Two sessions meet on objects and a
// directory neither has read since the database was reopened; -race fails
// the test if an element fetch or an index probe stores anything.
func TestConcurrentReadersOnReopenedDB(t *testing.T) {
	const fields, members = 64, 32
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := sysSession(t, db)
	world, _ := s.Global("World")
	names := make([]oop.OOP, fields)
	for i := range names {
		names[i] = s.Symbol(fmt.Sprintf("f%d", i))
	}
	acct, _ := s.NewObject(db.Kernel().Object)
	for i, name := range names {
		_ = s.Store(acct, name, oop.MustInt(int64(i)))
	}
	_ = s.Store(world, s.Symbol("acct"), acct)
	// Objects that commit with no elements reopen with no index at all.
	empties := make([]oop.OOP, fields)
	for i := range empties {
		empties[i], _ = s.NewObject(db.Kernel().Object)
		_ = s.Store(world, s.Symbol(fmt.Sprintf("empty%d", i)), empties[i])
	}
	emps, _ := s.NewObject(db.Kernel().Set)
	_ = s.Store(world, s.Symbol("emps"), emps)
	for i := 0; i < members; i++ {
		e, _ := s.NewObject(db.Kernel().Object)
		_ = s.Store(e, s.Symbol("salary"), oop.MustInt(int64(i)))
		_, _ = s.AddToSet(emps, e)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(emps, []string{"salary"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	db.Close()

	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Pull the objects into the shared cache without reading an element, so
	// the readers below only take the cache's read lock and nothing orders
	// one reader's first element access before the other's.
	s = sysSession(t, db)
	for _, o := range append([]oop.OOP{acct}, empties...) {
		if _, err := s.Object(o); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	read := func(s *Session) error {
		for i, name := range names {
			v, ok, err := s.Fetch(acct, name)
			if err != nil || !ok || v != oop.MustInt(int64(i)) {
				return fmt.Errorf("acct!f%d = %v %v %v", i, v, ok, err)
			}
			if _, ok, err := s.Fetch(empties[i], name); err != nil || ok {
				return fmt.Errorf("empty%d!f%d = %v %v", i, i, ok, err)
			}
		}
		var got []oop.OOP
		keep := func(m oop.OOP) error {
			got = append(got, m)
			return nil
		}
		for i := 0; i < members; i++ {
			got = got[:0]
			if err := s.IndexLookupFunc(emps, []string{"salary"}, directory.NumberKey(float64(i)), keep); err != nil || len(got) != 1 {
				return fmt.Errorf("lookup(%d) = %v %v", i, got, err)
			}
		}
		got = got[:0]
		lo := directory.NumberKey(members / 2)
		if err := s.IndexRangeFunc(emps, []string{"salary"}, &lo, nil, true, true, keep); err != nil || len(got) != members/2 {
			return fmt.Errorf("range(>= %d) = %d members %v", members/2, len(got), err)
		}
		return nil
	}
	sessions := []*Session{sysSession(t, db), sysSession(t, db)}
	errs := make(chan error, len(sessions))
	for _, s := range sessions {
		go func() { errs <- read(s) }()
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for _, s := range sessions {
		s.Close()
	}
}
