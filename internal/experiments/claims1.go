package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/gemstone"
	"repro/internal/algebra"
	"repro/internal/auth"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/loom"
	"repro/internal/object"
	"repro/internal/oop"
	"repro/internal/txn"
)

// C1 — "a declarative semantics allows more flexibility in evaluating
// queries, and that flexibility is needed to support reasonable
// optimization" (§4.3, §5.2). Runs the paper's §5.1 query naive
// (calculus-order scans, predicate on the full product) vs optimized
// (selection pushdown + range reordering), sweeping database size. The
// optimizer must win by a factor that grows with the data.
func C1(w io.Writer) error {
	fmt.Fprintln(w, "C1: declarative optimization — paper query: naive / pushdown-only / full plan")
	fmt.Fprintf(w, "  %-10s %14s %14s %14s %9s %13s %13s\n",
		"employees", "naive ns/op", "pushdown ns", "full ns/op", "speedup", "naive preds", "full preds")
	prevSpeedup := 0.0
	for _, extra := range []int{20, 80, 320} {
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		s, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		if _, err := buildCalcDB(s, extra); err != nil {
			done()
			return err
		}
		q, err := calculus.Parse(paperQuery)
		if err != nil {
			done()
			return err
		}
		naivePlan, err := algebra.Translate(q)
		if err != nil {
			done()
			return err
		}
		pushPlan, err := algebra.OptimizePushdownOnly(q, s.Core())
		if err != nil {
			done()
			return err
		}
		optPlan, err := algebra.Optimize(q, s.Core())
		if err != nil {
			done()
			return err
		}
		var nStats algebra.Stats
		nNS, err := timeIt(3, func() error {
			_, st, err := naivePlan.Exec(s.Core())
			nStats = st
			return err
		})
		if err != nil {
			done()
			return err
		}
		pNS, err := timeIt(3, func() error {
			_, _, err := pushPlan.Exec(s.Core())
			return err
		})
		if err != nil {
			done()
			return err
		}
		var oStats algebra.Stats
		oNS, err := timeIt(3, func() error {
			_, st, err := optPlan.Exec(s.Core())
			oStats = st
			return err
		})
		if err != nil {
			done()
			return err
		}
		speedup := nNS / oNS
		fmt.Fprintf(w, "  %-10d %14.0f %14.0f %14.0f %8.1fx %13d %13d\n",
			extra+5, nNS, pNS, oNS, speedup, nStats.PredEvals, oStats.PredEvals)
		if speedup < 1 {
			done()
			return fmt.Errorf("c1: optimizer slower than naive at %d employees", extra+5)
		}
		prevSpeedup = speedup
		done()
	}
	fmt.Fprintf(w, "  shape: each optimizer stage helps; the full-plan factor grows with data size (last %.1fx)\n", prevSpeedup)
	return nil
}

// C2 — "associative access to subparts of an object is a necessary aid"
// (§4.3); the Directory Manager provides it (§6). Equality selection via a
// maintained directory vs a sequential scan, sweeping set cardinality.
func C2(w io.Writer) error {
	fmt.Fprintln(w, "C2: directory (history-aware B-tree) vs sequential scan — salary = K")
	fmt.Fprintf(w, "  %-8s %14s %14s %9s\n", "members", "scan ns/op", "index ns/op", "speedup")
	for _, n := range []int{100, 1000, 10000} {
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		s, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		s.MustRun(`World at: #emps put: Set new`)
		core := s.Core()
		emps, err := s.Path("World!emps", nil)
		if err != nil {
			done()
			return err
		}
		k := db.Core().Kernel()
		salSym := core.Symbol("salary")
		for i := 0; i < n; i++ {
			e, err := core.NewObject(k.Object)
			if err != nil {
				done()
				return err
			}
			if err := core.Store(e, salSym, oop.MustInt(int64(i))); err != nil {
				done()
				return err
			}
			if _, err := core.AddToSet(emps, e); err != nil {
				done()
				return err
			}
		}
		if _, err := s.Commit(); err != nil {
			done()
			return err
		}
		query := fmt.Sprintf("{E: e} where (e in World!emps) and e!salary = %d", n/2)
		scanNS, err := timeIt(3, func() error {
			rows, _, err := algebra.RunNaive(core, query)
			if err == nil && len(rows) != 1 {
				return fmt.Errorf("scan found %d rows", len(rows))
			}
			return err
		})
		if err != nil {
			done()
			return err
		}
		if err := core.CreateIndex(emps, []string{"salary"}); err != nil {
			done()
			return err
		}
		ixNS, err := timeIt(50, func() error {
			rows, _, err := algebra.Run(core, query)
			if err == nil && len(rows) != 1 {
				return fmt.Errorf("index found %d rows", len(rows))
			}
			return err
		})
		if err != nil {
			done()
			return err
		}
		fmt.Fprintf(w, "  %-8d %14.0f %14.0f %8.1fx\n", n, scanNS, ixNS, scanNS/ixNS)
		done()
	}
	fmt.Fprintln(w, "  shape: index cost ~flat, scan cost ~linear; crossover below the smallest N")
	return nil
}

// C3 — the Transaction Manager "handles concurrent use of the permanent
// database in an optimistic manner" (§6). Multi-session commit throughput
// and abort rate as contention rises: with disjoint writes aborts are rare;
// when all sessions fight over one object, aborts dominate — the optimistic
// shape.
func C3(w io.Writer) error {
	fmt.Fprintln(w, "C3: optimistic concurrency — 4 sessions x 50 txns, varying shared hot set")
	fmt.Fprintf(w, "  %-12s %12s %12s %12s\n", "hot objects", "committed", "aborted", "abort rate")
	const workers, attempts = 4, 50
	for _, hot := range []int{0, 64, 8, 1} { // 0 = fully disjoint
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		setup, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		nTargets := hot
		if hot == 0 {
			nTargets = workers
		}
		for i := 0; i < nTargets; i++ {
			setup.MustRun(fmt.Sprintf("World at: #obj%d put: (Object new at: #v put: 0; yourself)", i))
		}
		if _, err := setup.Commit(); err != nil {
			done()
			return err
		}
		var committed, aborted atomic.Int64
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				sess, err := db.Core().NewSession(auth.SystemUser, "swordfish")
				if err != nil {
					return
				}
				defer sess.Close()
				vSym := sess.Symbol("v")
				for a := 0; a < attempts; a++ {
					var target oop.OOP
					if hot == 0 {
						target, _ = gemSessionGlobal(sess, fmt.Sprintf("obj%d", wk))
					} else {
						target, _ = gemSessionGlobal(sess, fmt.Sprintf("obj%d", (wk*attempts+a)%hot))
					}
					v, _, err := sess.Fetch(target, vSym)
					if err != nil {
						return
					}
					next := int64(0)
					if v.IsSmallInt() {
						next = v.Int() + 1
					}
					if err := sess.Store(target, vSym, oop.MustInt(next)); err != nil {
						return
					}
					if _, err := sess.Commit(); err != nil {
						if errors.Is(err, txn.ErrConflict) {
							aborted.Add(1)
							continue
						}
						return
					}
					committed.Add(1)
				}
			}(wk)
		}
		wg.Wait()
		total := committed.Load() + aborted.Load()
		rate := float64(aborted.Load()) / float64(total)
		label := fmt.Sprint(hot)
		if hot == 0 {
			label = "disjoint"
		}
		fmt.Fprintf(w, "  %-12s %12d %12d %11.1f%%\n", label, committed.Load(), aborted.Load(), rate*100)
		done()
	}
	fmt.Fprintln(w, "  shape: disjoint ≈ 0% aborts; aborts climb as the hot set shrinks")
	return nil
}

func gemSessionGlobal(s *core.Session, name string) (oop.OOP, error) {
	world, ok := s.Global("World")
	if !ok {
		return oop.Invalid, fmt.Errorf("no World")
	}
	v, _, err := s.Fetch(world, s.Symbol(name))
	return v, err
}

// C4 — objects "grow with time" and the association-table representation
// keeps temporal fetches cheap (§6), while a LOOM-style whole-object
// representation pays for the entire history on every fault (§7). E!Salary@T
// cost vs history length.
func C4(w io.Writer) error {
	fmt.Fprintln(w, "C4: E!Salary@T cost vs history length — association table vs LOOM fault")
	fmt.Fprintf(w, "  %-8s %18s %18s %16s\n", "history", "gemstone ns/op", "loom ns/op", "loom bytes/op")
	for _, hist := range []int{16, 256, 2048} {
		db, done, err := tempDB(gemstone.Options{})
		if err != nil {
			return err
		}
		s, err := db.Login(gemstone.SystemUser, "swordfish")
		if err != nil {
			done()
			return err
		}
		s.MustRun("World at: #emp put: (Object new at: #salary put: 0; yourself)")
		if _, err := s.Commit(); err != nil {
			done()
			return err
		}
		core := s.Core()
		emp, err := s.Path("World!emp", nil)
		if err != nil {
			done()
			return err
		}
		salSym := core.Symbol("salary")
		for i := 0; i < hist; i++ {
			if err := core.Store(emp, salSym, oop.MustInt(int64(i))); err != nil {
				done()
				return err
			}
			if _, err := core.Commit(); err != nil {
				done()
				return err
			}
		}
		mid := oop.Time(uint64(hist) / 2)
		gemNS, err := timeIt(2000, func() error {
			_, _, err := core.FetchAt(emp, salSym, mid)
			return err
		})
		if err != nil {
			done()
			return err
		}
		// The LOOM side: same history, whole-object faults under a cache
		// that alternates between two objects (each access misses).
		mem := loom.New(1)
		obA := object.New(oop.FromSerial(1), oop.FromSerial(1), 0, object.FormatNamed)
		obB := object.New(oop.FromSerial(2), oop.FromSerial(1), 0, object.FormatNamed)
		for i := 1; i <= hist; i++ {
			_ = obA.Store(salSym, oop.Time(i), oop.MustInt(int64(i)))
			_ = obB.Store(salSym, oop.Time(i), oop.MustInt(int64(i)))
		}
		if err := mem.Store(obA); err != nil {
			done()
			return fmt.Errorf("c4: loom store: %w (history %d)", err, hist)
		}
		if err := mem.Store(obB); err != nil {
			done()
			return err
		}
		mem.ResetStats()
		iters := 2000
		loomNS, err := timeIt(iters, func() error {
			// Alternate objects so the capacity-1 cache always faults.
			if _, _, err := mem.FetchAt(oop.FromSerial(1), salSym, mid); err != nil {
				return err
			}
			_, _, err := mem.FetchAt(oop.FromSerial(2), salSym, mid)
			return err
		})
		if err != nil {
			done()
			return err
		}
		loomNS /= 2 // two fetches per iteration
		bytesPerOp := float64(mem.Stats().DiskBytes) / float64(iters*2)
		fmt.Fprintf(w, "  %-8d %18.0f %18.0f %16.0f\n", hist, gemNS, loomNS, bytesPerOp)
		done()
	}
	fmt.Fprintln(w, "  shape: gemstone ~log(history); loom ~linear (whole history decoded per fault)")
	return nil
}

// C5 — "no garbage collection need be done on database objects" (§6):
// history replaces deletion, so commit latency stays flat as the database
// accumulates state, while an update-in-place memory pays periodic
// mark/sweep pauses that grow with the live heap.
func C5(w io.Writer) error {
	fmt.Fprintln(w, "C5: append-only history vs update-in-place + mark/sweep GC")
	db, done, err := tempDB(gemstone.Options{})
	if err != nil {
		return err
	}
	defer done()
	s, err := db.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		return err
	}
	s.MustRun("World at: #counter put: (Object new at: #v put: 0; yourself)")
	if _, err := s.Commit(); err != nil {
		return err
	}
	core := s.Core()
	ctr, err := s.Path("World!counter", nil)
	if err != nil {
		return err
	}
	vSym := core.Symbol("v")
	fmt.Fprintf(w, "  %-24s %14s\n", "commits so far", "commit ns/op")
	var first, last float64
	for _, phase := range []int{0, 400, 800} {
		ns, err := timeIt(100, func() error {
			if err := core.Store(ctr, vSym, oop.MustInt(int64(phase))); err != nil {
				return err
			}
			_, err := core.Commit()
			return err
		})
		if err != nil {
			return err
		}
		// Drive additional history between measurement points.
		for i := 0; i < 300; i++ {
			_ = core.Store(ctr, vSym, oop.MustInt(int64(i)))
			if _, err := core.Commit(); err != nil {
				return err
			}
		}
		if first == 0 {
			first = ns
		}
		last = ns
		fmt.Fprintf(w, "  %-24d %14.0f\n", phase+100, ns)
	}
	growth := last / first
	fmt.Fprintf(w, "  gemstone commit latency growth across 1200 history-accumulating commits: %.2fx\n", growth)

	// The GC'd alternative: update in place, mark/sweep over the live heap
	// every K updates. Pause grows linearly with heap size.
	fmt.Fprintf(w, "  %-24s %14s\n", "live heap (objects)", "GC pause ns")
	type gcObj struct {
		vals map[int]int64
		refs []int
	}
	for _, heap := range []int{10000, 40000, 160000} {
		objs := make([]*gcObj, heap)
		for i := range objs {
			objs[i] = &gcObj{vals: map[int]int64{0: int64(i)}, refs: []int{(i + 1) % heap}}
		}
		start := time.Now()
		// Mark.
		marked := make([]bool, heap)
		stack := []int{0}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if marked[i] {
				continue
			}
			marked[i] = true
			stack = append(stack, objs[i].refs...)
		}
		// Sweep.
		live := 0
		for i := range objs {
			if marked[i] {
				live++
			}
		}
		pause := time.Since(start).Nanoseconds()
		fmt.Fprintf(w, "  %-24d %14d\n", heap, pause)
		_ = live
	}
	fmt.Fprintln(w, "  shape: append-only commit latency ~flat; GC pause grows ~linearly with heap")
	return nil
}
