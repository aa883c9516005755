package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/gemstone"
	"repro/internal/loom"
	"repro/internal/object"
	"repro/internal/oop"
	"repro/internal/relational"
	"repro/internal/store"
)

// C6 — the Commit Manager "provides safe writing for groups of tracks ...
// all the tracks in the group get written, or none get written, and ...
// replace their old versions atomically" (§6). Part (a) injects a crash at
// every step of the commit protocol and verifies the reopened database
// shows exactly the pre-commit state; part (b) measures group-commit
// throughput across track sizes.
func C6(w io.Writer) error {
	fmt.Fprintln(w, "C6a: crash injection at every commit step — atomicity")
	c := &checker{w: w}
	steps := []string{"before-data", "after-data", "after-table", "after-directory", "before-superblock"}
	for _, step := range steps {
		dir, err := os.MkdirTemp("", "gs-c6-*")
		if err != nil {
			return err
		}
		crash := ""
		st, err := store.Open(dir, store.Options{TrackSize: 1024, FailPoint: func(s string) error {
			if s == crash {
				return errors.New("injected crash")
			}
			return nil
		}})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		base := object.New(oop.FromSerial(1), oop.FromSerial(1), 0, object.FormatNamed)
		_ = base.Store(oop.FromSerial(100), 1, oop.MustInt(42))
		if err := st.Apply(store.Commit{Objects: []*object.Object{base}, Root: base.OOP, NextSerial: 2, Time: 1}); err != nil {
			st.Close()
			os.RemoveAll(dir)
			return err
		}
		crash = step
		upd := object.New(oop.FromSerial(1), oop.FromSerial(1), 0, object.FormatNamed)
		_ = upd.Store(oop.FromSerial(100), 1, oop.MustInt(42))
		_ = upd.Store(oop.FromSerial(100), 2, oop.MustInt(99))
		err = st.Apply(store.Commit{Objects: []*object.Object{upd}, NextSerial: 2, Time: 2})
		crashed := errors.Is(err, store.ErrCrashed)
		st.Close()

		st2, err := store.Open(dir, store.Options{TrackSize: 1024})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		meta := st2.Meta()
		ob, err := st2.Load(oop.FromSerial(1))
		intact := err == nil && meta.LastTime == 1
		if intact {
			v, _ := ob.Fetch(oop.FromSerial(100))
			intact = v == oop.MustInt(42)
		}
		st2.Close()
		os.RemoveAll(dir)
		c.check(fmt.Sprintf("crash at %-18s -> old state intact, new invisible", step), crashed && intact, "")
	}
	if err := c.result("c6a"); err != nil {
		return err
	}

	fmt.Fprintln(w, "C6b: group-commit cost by track size (1000 objects per commit)")
	fmt.Fprintf(w, "  %-10s %16s %14s\n", "track B", "commit ns/op", "writes/commit")
	for _, ts := range []int{1024, 8192, 32768} {
		dir, err := os.MkdirTemp("", "gs-c6b-*")
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{TrackSize: ts})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		commitNo := oop.Time(0)
		before := st.TrackManager().Stats().Writes
		ns, err := timeIt(20, func() error {
			commitNo++
			objs := make([]*object.Object, 1000)
			for j := range objs {
				ob := object.New(oop.FromSerial(uint64(j)+1), oop.FromSerial(1), 0, object.FormatNamed)
				_ = ob.Store(oop.FromSerial(100), commitNo, oop.MustInt(int64(j)))
				objs[j] = ob
			}
			return st.Apply(store.Commit{Objects: objs, NextSerial: 1001, Time: commitNo})
		})
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return err
		}
		writes := st.TrackManager().Stats().Writes - before
		fmt.Fprintf(w, "  %-10d %16.0f %14.1f\n", ts, ns, float64(writes)/20)
		st.Close()
		os.RemoveAll(dir)
	}
	fmt.Fprintln(w, "  shape: bigger tracks -> fewer physical writes per commit, until tracks")
	fmt.Fprintln(w, "         exceed the batch and padding dominates (whole-track I/O tradeoff)")
	return nil
}

// C7 — "requests for replication of data" (§6). Reads survive damaged
// replicas via checksum fallback; replication multiplies write cost.
func C7(w io.Writer) error {
	fmt.Fprintln(w, "C7: replication — write overhead and damaged-replica fallback")
	fmt.Fprintf(w, "  %-10s %16s\n", "replicas", "commit ns/op")
	for _, reps := range []int{1, 2, 3} {
		dir, err := os.MkdirTemp("", "gs-c7-*")
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{TrackSize: 4096, Replicas: reps})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		commitNo := oop.Time(0)
		ns, err := timeIt(20, func() error {
			commitNo++
			ob := object.New(oop.FromSerial(1), oop.FromSerial(1), 0, object.FormatNamed)
			_ = ob.Store(oop.FromSerial(100), commitNo, oop.MustInt(int64(commitNo)))
			return st.Apply(store.Commit{Objects: []*object.Object{ob}, NextSerial: 2, Time: commitNo})
		})
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return err
		}
		fmt.Fprintf(w, "  %-10d %16.0f\n", reps, ns)
		st.Close()
		os.RemoveAll(dir)
	}

	// Availability: damage all but the last replica and read back.
	c := &checker{w: w}
	dir, err := os.MkdirTemp("", "gs-c7b-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{TrackSize: 1024, Replicas: 3})
	if err != nil {
		return err
	}
	defer st.Close()
	ob := object.New(oop.FromSerial(1), oop.FromSerial(1), 0, object.FormatNamed)
	_ = ob.Store(oop.FromSerial(100), 1, oop.MustInt(7))
	if err := st.Apply(store.Commit{Objects: []*object.Object{ob}, NextSerial: 2, Time: 1}); err != nil {
		return err
	}
	tm := st.TrackManager()
	if err := damageTracks(tm, []int{0, 1}, 2); err != nil {
		return err
	}
	tm.DropCache()
	got, err := st.Load(oop.FromSerial(1))
	ok := err == nil
	if ok {
		v, _ := got.Fetch(oop.FromSerial(100))
		ok = v == oop.MustInt(7)
	}
	c.check("read with 2 of 3 replicas damaged", ok, fmt.Sprintf("fallbacks=%d", tm.Stats().ReplicaFallbacks))
	// The salvaged read healed the damaged arms in place (read-repair), so
	// the track must survive the loss of the salvaging replica.
	c.check("salvaged read healed the damaged arms", tm.Stats().ReadRepairs > 0,
		fmt.Sprintf("read-repairs=%d", tm.Stats().ReadRepairs))
	if err := damageTracks(tm, []int{2}, 2); err != nil {
		return err
	}
	tm.DropCache()
	_, err = st.Load(oop.FromSerial(1))
	c.check("read after repair survives losing the salvaging replica", err == nil, "")
	// Damage every copy at once: now the error must surface.
	if err := damageTracks(tm, []int{0, 1, 2}, 2); err != nil {
		return err
	}
	tm.DropCache()
	_, err = st.Load(oop.FromSerial(1))
	c.check("read with all replicas damaged reports the error", err != nil, "")
	return c.result("c7")
}

// damageTracks corrupts tracks [from, tm.Tracks()) on each named replica
// arm. A failed injection is an error, not a shrug: if the damage pass
// silently did nothing, every availability claim built on it would be
// vacuous. (Regression: the errors used to be dropped with _, caught by
// gslint's errflow analyzer.)
func damageTracks(tm *store.TrackManager, replicas []int, from uint32) error {
	for n := from; n < tm.Tracks(); n++ {
		for _, ri := range replicas {
			if err := tm.DamageTrack(ri, n); err != nil {
				return fmt.Errorf("damage injection on replica %d track %d: %w", ri, n, err)
			}
		}
	}
	return nil
}

// C8 — §4.3: "Only 32K objects are allowed in most implementations, and the
// maximum size for an object is 64K bytes. We need to handle more and
// larger data items ... such as long documents and graphical images."
func C8(w io.Writer) error {
	fmt.Fprintln(w, "C8: beyond the ST80 limits — 100,000 objects and a 1MB document")
	c := &checker{w: w}
	db, done, err := tempDB(gemstone.Options{})
	if err != nil {
		return err
	}
	defer done()
	s, err := db.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		return err
	}
	core := s.Core()
	k := db.Core().Kernel()
	s.MustRun("World at: #lots put: Dictionary new")
	lots, err := s.Path("World!lots", nil)
	if err != nil {
		return err
	}
	vSym := core.Symbol("v")
	const n = 100_000
	for i := 0; i < n; i++ {
		e, err := core.NewObject(k.Object)
		if err != nil {
			return err
		}
		if err := core.Store(e, vSym, oop.MustInt(int64(i))); err != nil {
			return err
		}
		if err := core.Store(lots, oop.MustInt(int64(i+1)), e); err != nil {
			return err
		}
		if (i+1)%20_000 == 0 {
			if _, err := core.Commit(); err != nil {
				return err
			}
		}
	}
	if _, err := core.Commit(); err != nil {
		return err
	}
	okAll := true
	for _, probe := range []int64{1, 32768, 65536, 100000} {
		e, _, err := core.Fetch(lots, oop.MustInt(probe))
		if err != nil {
			return err
		}
		v, _, err := core.Fetch(e, vSym)
		if err != nil || v != oop.MustInt(probe-1) {
			okAll = false
		}
	}
	c.check("100,000 objects committed and readable (>> ST80's 32K)", okAll, "")

	// A "long document": a 1MB byte object (>> the 64KB ceiling).
	doc := bytes.Repeat([]byte("GemStone makes Smalltalk a database system. "), 24_000)
	docObj, err := core.NewObject(k.String)
	if err != nil {
		return err
	}
	if err := core.SetBytes(docObj, doc); err != nil {
		return err
	}
	world, _ := s.Path("World", nil)
	if err := core.Store(world, core.Symbol("document"), docObj); err != nil {
		return err
	}
	if _, err := core.Commit(); err != nil {
		return err
	}
	db.Core().Store().TrackManager().DropCache()
	back, err := core.BytesOf(docObj)
	if err != nil {
		return err
	}
	c.check(fmt.Sprintf("%.1fMB document round-trips (>> ST80's 64KB)", float64(len(doc))/1e6),
		bytes.Equal(back, doc), "")

	// The same document is impossible under the LOOM/ST80 representation.
	big := object.New(oop.FromSerial(1), oop.FromSerial(2), 0, object.FormatBytes)
	_ = big.SetBytes(1, doc)
	mem := loom.New(4)
	err = mem.Store(big)
	c.check("LOOM baseline rejects it (64KB ceiling retained)", errors.Is(err, loom.ErrTooLarge), "")
	return c.result("c8")
}

// C9 — entity identity vs logical pointers (§2.D): renaming a shared
// department is one store in GSDM; the relational encoding must rewrite the
// key in every referring tuple and pay a join to reassemble employees with
// their budgets.
func C9(w io.Writer) error {
	fmt.Fprintln(w, "C9: shared-department rename — GSDM identity vs relational key propagation")
	fmt.Fprintf(w, "  %-10s %18s %14s %20s %14s\n", "employees", "gsdm stores", "gsdm ns", "relational tuples", "relational ns")
	for _, n := range []int{100, 1000, 10000} {
		// GSDM: employees share the department OBJECT; renaming it is one
		// element store, regardless of fan-out.
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		s, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		core := s.Core()
		k := db.Core().Kernel()
		world, _ := s.Path("World", nil)
		dept, _ := core.NewObject(k.Dictionary)
		nameStr, _ := core.NewString("Sales")
		_ = core.Store(dept, core.Symbol("name"), nameStr)
		_ = core.Store(world, core.Symbol("dept"), dept)
		emps, _ := core.NewObject(k.Set)
		_ = core.Store(world, core.Symbol("emps"), emps)
		for i := 0; i < n; i++ {
			e, _ := core.NewObject(k.Object)
			_ = core.Store(e, core.Symbol("dept"), dept) // shared identity
			_, _ = core.AddToSet(emps, e)
		}
		if _, err := core.Commit(); err != nil {
			done()
			return err
		}
		newName, _ := core.NewString("Selling")
		gsdmNS, err := timeIt(1, func() error {
			if err := core.Store(dept, core.Symbol("name"), newName); err != nil {
				return err
			}
			_, err := core.Commit()
			return err
		})
		if err != nil {
			done()
			return err
		}
		// Every employee sees the rename through the shared object.
		var probe []oop.OOP
		if err := core.MembersFunc(emps, func(m oop.OOP) error {
			probe = append(probe, m)
			return nil
		}); err != nil {
			done()
			return err
		}
		d0, _, _ := core.Fetch(probe[0], core.Symbol("dept"))
		nm, _, _ := core.Fetch(d0, core.Symbol("name"))
		b, _ := core.BytesOf(nm)
		if string(b) != "Selling" {
			done()
			return fmt.Errorf("c9: rename not visible through shared reference")
		}
		done()

		// Relational: department name is the logical pointer; the rename
		// rewrites every employee tuple plus the department tuple.
		emp := relational.New("Employees", "EmpId", "Dept")
		for i := 0; i < n; i++ {
			_ = emp.Insert(int64(i), "Sales")
		}
		deptRel := relational.New("Departments", "Dept", "Budget")
		_ = deptRel.Insert("Sales", int64(142000))
		var touched int
		relNS, err := timeIt(1, func() error {
			a, err := emp.UpdateWhere("Dept", "Sales", "Dept", "Selling")
			if err != nil {
				return err
			}
			b, err := deptRel.UpdateWhere("Dept", "Sales", "Dept", "Selling")
			if err != nil {
				return err
			}
			touched = a + b
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10d %18d %14.0f %20d %14.0f\n", n, 1, gsdmNS, touched, relNS)
	}
	fmt.Fprintln(w, "  note: gsdm ns includes a durable commit; the relational side is pure memory —")
	fmt.Fprintln(w, "        the paper's point is the touched-tuple count (1 vs N+1) and key churn")
	fmt.Fprintln(w, "  shape: GSDM touches 1 object regardless of fan-out; relational touches N+1 tuples")

	// Read side: bringing "the description of an employee together" costs a
	// join under the relational encoding vs a single path traversal in GSDM.
	fmt.Fprintf(w, "  %-10s %20s %20s\n", "employees", "gsdm path ns/op", "relational join ns")
	for _, n := range []int{1000, 10000} {
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		s, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		core := s.Core()
		k := db.Core().Kernel()
		world, _ := s.Path("World", nil)
		dept, _ := core.NewObject(k.Dictionary)
		_ = core.Store(dept, core.Symbol("budget"), oop.MustInt(142000))
		_ = core.Store(world, core.Symbol("dept"), dept)
		e0, _ := core.NewObject(k.Object)
		_ = core.Store(e0, core.Symbol("dept"), dept)
		_ = core.Store(world, core.Symbol("e0"), e0)
		if _, err := core.Commit(); err != nil {
			done()
			return err
		}
		pathNS, err := timeIt(2000, func() error {
			d, _, err := core.Fetch(e0, core.Symbol("dept"))
			if err != nil {
				return err
			}
			_, _, err = core.Fetch(d, core.Symbol("budget"))
			return err
		})
		done()
		if err != nil {
			return err
		}
		emp := relational.New("Employees", "EmpId", "Dept")
		for i := 0; i < n; i++ {
			_ = emp.Insert(int64(i), "Sales")
		}
		deptRel := relational.New("Departments", "Dept", "Budget")
		_ = deptRel.Insert("Sales", int64(142000))
		joinNS, err := timeIt(10, func() error {
			j, err := emp.Join(deptRel, "Dept", "Dept")
			if err != nil {
				return err
			}
			if j.Len() != n {
				return fmt.Errorf("join produced %d rows", j.Len())
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10d %20.0f %20.0f\n", n, pathNS, joinNS)
	}
	fmt.Fprintln(w, "  shape: path access is O(1); the reassembly join is O(N)")
	return nil
}

// C10 — §7: LOOM "uses the standard Smalltalk representation ... For
// objects with a large history, we may want to bring only a fragment of the
// object into memory". Random small reads over a working set larger than
// the resident cache.
func C10(w io.Writer) error {
	fmt.Fprintln(w, "C10: random element reads, 64-object working set, 16-object LOOM cache")
	fmt.Fprintf(w, "  %-8s %18s %18s %12s %16s\n", "history", "gemstone ns/op", "loom ns/op", "loom faults", "loom MB decoded")
	for _, hist := range []int{8, 64, 512} {
		// GemStone: committed objects served from the shared cache with
		// binary-searched histories.
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		s, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		core := s.Core()
		k := db.Core().Kernel()
		world, _ := s.Path("World", nil)
		vSym := core.Symbol("v")
		const workingSet = 64
		oops := make([]oop.OOP, workingSet)
		for i := range oops {
			o, _ := core.NewObject(k.Object)
			oops[i] = o
			_ = core.Store(world, core.Symbol(fmt.Sprintf("o%d", i)), o)
		}
		for h := 0; h < hist; h++ {
			for _, o := range oops {
				_ = core.Store(o, vSym, oop.MustInt(int64(h)))
			}
			if _, err := core.Commit(); err != nil {
				done()
				return err
			}
		}
		idx := 0
		gemNS, err := timeIt(5000, func() error {
			idx = (idx*5 + 3) % workingSet
			_, _, err := core.Fetch(oops[idx], vSym)
			return err
		})
		if err != nil {
			done()
			return err
		}
		done()

		// LOOM: same objects, 16-resident cache, whole-object faults.
		mem := loom.New(16)
		for i := 0; i < workingSet; i++ {
			ob := object.New(oop.FromSerial(uint64(i)+1), oop.FromSerial(1), 0, object.FormatNamed)
			for h := 1; h <= hist; h++ {
				_ = ob.Store(vSym, oop.Time(h), oop.MustInt(int64(h)))
			}
			if err := mem.Store(ob); err != nil {
				return err
			}
		}
		mem.ResetStats()
		idx = 0
		iters := 5000
		loomNS, err := timeIt(iters, func() error {
			idx = (idx*5 + 3) % workingSet
			_, _, err := mem.Fetch(oop.FromSerial(uint64(idx)+1), vSym)
			return err
		})
		if err != nil {
			return err
		}
		st := mem.Stats()
		fmt.Fprintf(w, "  %-8d %18.0f %18.0f %12d %16.2f\n",
			hist, gemNS, loomNS, st.Faults, float64(st.DiskBytes)/1e6)
	}
	fmt.Fprintln(w, "  shape: loom cost grows with history (whole-object faults); gemstone stays flat")
	return nil
}
