package repro

// One testing.B series per experiment in DESIGN.md's index (C1..C10; the
// figure and worked examples are exact reproductions run by cmd/gsbench).
// Benchmarks measure the same quantities as `gsbench -all` but under the
// standard Go benchmark harness: run with
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records representative numbers and the expected shapes.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/gemstone"
	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/loom"
	"repro/internal/object"
	"repro/internal/oop"
	"repro/internal/relational"
	"repro/internal/store"
	"repro/internal/txn"
)

func openBenchDB(b *testing.B) (*gemstone.DB, *gemstone.Session) {
	b.Helper()
	db, err := gemstone.Open(b.TempDir(), gemstone.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	s, err := db.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		b.Fatal(err)
	}
	return db, s
}

const paperQuery = `{Emp: e, Mgr: m} where
 (e in X!Employees) and
 (d in X!Departments) [(m in d!Managers) and
 (d!Name in e!Depts) and (e!Salary > 0.10 * d!Budget)]`

// buildAcme populates the §5.1 database with extra employees and managers.
// Every tenth-and-one extra (i%10==1) is a well-paid Sales employee whose
// salary clears the 10%-of-budget bar, so the paper query has a result set
// that grows with the database — B/op per result row is measurable.
func buildAcme(b *testing.B, s *gemstone.Session, extra int) {
	b.Helper()
	s.MustRun(`| x depts d |
		x := Dictionary new. World at: #X put: x.
		depts := Dictionary new. x at: 'Departments' put: depts.
		x at: 'Employees' put: Dictionary new.
		d := Dictionary new. d at: 'Name' put: 'Sales'.
		d at: 'Managers' put: (Set new add: 'Nathen'; add: 'Roberts'; yourself).
		d at: 'Budget' put: 142000. depts at: 'A12' put: d.
		d := Dictionary new. d at: 'Name' put: 'Research'.
		d at: 'Managers' put: (Set new add: 'Carter'; yourself).
		d at: 'Budget' put: 256500. depts at: 'A16' put: d`)
	for i := 0; i < extra; i++ {
		dept := "Sales"
		if i%2 == 0 {
			dept = "Research"
		}
		salary := 1000 + i%50
		if i%10 == 1 {
			salary = 20000 // Sales (i odd), above 10% of the 142000 budget
		}
		s.MustRun(fmt.Sprintf(`| e | e := Dictionary new.
			e at: 'Salary' put: %d.
			e at: 'Depts' put: (Set new add: '%s'; yourself).
			X!Employees at: 'F%d' put: e`, salary, dept, i))
	}
	for i := 0; i < extra/4; i++ {
		s.MustRun(fmt.Sprintf(`X!Departments!A12!Managers add: 'M%d'`, i))
	}
	if _, err := s.Commit(); err != nil {
		b.Fatal(err)
	}
}

// --- C1: calculus translation, naive vs optimized ---

// BenchmarkC1_QueryPlans is the plan-shape family: the paper query run
// through every plan the optimizer ablation produces. rows/op makes B/op
// per result row computable from the ledger (the query_gate section of
// BENCH_2.json records the streaming-executor allocation budget).
func BenchmarkC1_QueryPlans(b *testing.B) {
	for _, extra := range []int{20, 80} {
		_, s := openBenchDB(b)
		buildAcme(b, s, extra)
		q, err := calculus.Parse(paperQuery)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := algebra.Translate(q)
		if err != nil {
			b.Fatal(err)
		}
		push, err := algebra.OptimizePushdownOnly(q, s.Core())
		if err != nil {
			b.Fatal(err)
		}
		opt, err := algebra.Optimize(q, s.Core())
		if err != nil {
			b.Fatal(err)
		}
		runPlan := func(name string, exec func() ([]algebra.Tuple, algebra.Stats, error)) {
			b.Run(fmt.Sprintf("%s/employees=%d", name, extra+5), func(b *testing.B) {
				rows := 0
				for i := 0; i < b.N; i++ {
					ts, _, err := exec()
					if err != nil {
						b.Fatal(err)
					}
					rows = len(ts)
				}
				b.ReportMetric(float64(rows), "rows/op")
			})
		}
		runPlan("naive", func() ([]algebra.Tuple, algebra.Stats, error) { return naive.Exec(s.Core()) })
		runPlan("pushdown", func() ([]algebra.Tuple, algebra.Stats, error) { return push.Exec(s.Core()) })
		runPlan("optimized", func() ([]algebra.Tuple, algebra.Stats, error) { return opt.Exec(s.Core()) })
	}
}

// --- C2: directory vs scan ---

func BenchmarkC2_AssociativeAccess(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		_, s := openBenchDB(b)
		cs := s.Core()
		k := cs.DB().Kernel()
		s.MustRun("World at: #emps put: Set new")
		emps, err := s.Path("World!emps", nil)
		if err != nil {
			b.Fatal(err)
		}
		salSym := cs.Symbol("salary")
		for i := 0; i < n; i++ {
			e, _ := cs.NewObject(k.Object)
			_ = cs.Store(e, salSym, oop.MustInt(int64(i)))
			if _, err := cs.AddToSet(emps, e); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
		query := fmt.Sprintf("{E: e} where (e in World!emps) and e!salary = %d", n/2)
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := algebra.RunNaive(cs, query); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := cs.CreateIndex(emps, []string{"salary"}); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("index/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := algebra.Run(cs, query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCalculusScan is the per-member cost of an unindexed calculus
// scan: `e!badge = k` over 2,000 committed members, one path step read per
// member. The query is parsed and planned once, as a plan cache would.
func BenchmarkCalculusScan(b *testing.B) {
	const n = 2000
	_, s := openBenchDB(b)
	cs := s.Core()
	s.MustRun("World at: #emps put: Set new")
	emps, err := s.Path("World!emps", nil)
	if err != nil {
		b.Fatal(err)
	}
	badge := cs.Symbol("badge")
	for i := 0; i < n; i++ {
		e, _ := cs.NewObject(cs.DB().Kernel().Object)
		if err := cs.Store(e, badge, oop.MustInt(int64(i*37%n))); err != nil {
			b.Fatal(err)
		}
		if _, err := cs.AddToSet(emps, e); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	q, err := calculus.Parse(fmt.Sprintf("{E: e} where (e in World!emps) and e!badge = %d", n/2))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := algebra.Optimize(q, cs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, _, err := plan.Exec(cs); err != nil || len(rows) != 1 {
			b.Fatalf("scan = %d rows (%v), want 1", len(rows), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/member")
}

// --- C3: optimistic concurrency ---

func BenchmarkC3_OptimisticCommits(b *testing.B) {
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"disjoint", "hot1"} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				db, s := openBenchDB(b)
				for i := 0; i < workers; i++ {
					s.MustRun(fmt.Sprintf("World at: #obj%d put: (Object new at: #v put: 0; yourself)", i))
				}
				if _, err := s.Commit(); err != nil {
					b.Fatal(err)
				}
				var aborts atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N/workers + 1
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						sess, err := db.Core().NewSession(gemstone.SystemUser, "swordfish")
						if err != nil {
							return
						}
						target := fmt.Sprintf("obj%d", w)
						if mode == "hot1" {
							target = "obj0"
						}
						vSym := sess.Symbol("v")
						for i := 0; i < per; i++ {
							o, ok := sess.Global(target)
							if !ok {
								return
							}
							_ = sess.Store(o, vSym, oop.MustInt(int64(i)))
							if _, err := sess.Commit(); err != nil {
								if errors.Is(err, txn.ErrConflict) {
									aborts.Add(1)
									continue
								}
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/op")
			})
		}
	}
}

// benchCounter reads one obs counter out of a stats snapshot (0 if absent).
func benchCounter(db *gemstone.DB, name string) uint64 {
	for _, c := range db.Stats().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// BenchmarkCommitAllocs is the commit hot path's memory ledger: the
// tightest possible write-commit loop, run uncontended (workers=1) and
// contended (workers=4, where group commit must gather). B/op here is the
// number the memory-diet work gates on in CI — it is machine-independent,
// unlike ns/op on shared runners. The reported slabreuse/op metric proves
// the store's write slabs are reused rather than regrown.
func BenchmarkCommitAllocs(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db, s := openBenchDB(b)
			for i := 0; i < workers; i++ {
				s.MustRun(fmt.Sprintf("World at: #obj%d put: (Object new at: #v put: 0; yourself)", i))
			}
			if _, err := s.Commit(); err != nil {
				b.Fatal(err)
			}
			// Sessions are created before the clock starts and all workers
			// drain one shared work counter, so the run has no straggler
			// tail: a worker finishing early would leave the rest committing
			// in smaller groups and pollute the contended measurement.
			sessions := make([]*core.Session, workers)
			for w := range sessions {
				sess, err := db.Core().NewSession(gemstone.SystemUser, "swordfish")
				if err != nil {
					b.Fatal(err)
				}
				sessions[w] = sess
			}
			reuse0 := benchCounter(db, "store.slab.reuses")
			var left atomic.Int64
			left.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := sessions[w]
					vSym := sess.Symbol("v")
					for i := 0; left.Add(-1) >= 0; i++ {
						o, ok := sess.Global(fmt.Sprintf("obj%d", w))
						if !ok {
							return
						}
						_ = sess.Store(o, vSym, oop.MustInt(int64(i)))
						if _, err := sess.Commit(); err != nil {
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			ops := float64(b.N)
			b.ReportMetric(float64(benchCounter(db, "store.slab.reuses")-reuse0)/ops, "slabreuse/op")
		})
	}
}

// --- C4: temporal fetch vs history length ---

func BenchmarkC4_TemporalFetch(b *testing.B) {
	for _, hist := range []int{16, 256, 2048} {
		_, s := openBenchDB(b)
		cs := s.Core()
		s.MustRun("World at: #emp put: (Object new at: #salary put: 0; yourself)")
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
		emp, _ := s.Path("World!emp", nil)
		salSym := cs.Symbol("salary")
		for i := 0; i < hist; i++ {
			_ = cs.Store(emp, salSym, oop.MustInt(int64(i)))
			if _, err := cs.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		mid := oop.Time(uint64(hist) / 2)
		b.Run(fmt.Sprintf("gemstone/hist=%d", hist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := cs.FetchAt(emp, salSym, mid); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("loom/hist=%d", hist), func(b *testing.B) {
			mem := loom.New(1)
			for serial := uint64(1); serial <= 2; serial++ {
				ob := object.New(oop.FromSerial(serial), oop.FromSerial(1), 0, object.FormatNamed)
				for i := 1; i <= hist; i++ {
					_ = ob.Store(salSym, oop.Time(i), oop.MustInt(int64(i)))
				}
				if err := mem.Store(ob); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate so the 1-slot cache always faults.
				if _, _, err := mem.FetchAt(oop.FromSerial(uint64(i%2)+1), salSym, mid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C5: commit latency stays flat as history accumulates ---

func BenchmarkC5_CommitLatency(b *testing.B) {
	_, s := openBenchDB(b)
	cs := s.Core()
	s.MustRun("World at: #counter put: (Object new at: #v put: 0; yourself)")
	if _, err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	ctr, _ := s.Path("World!counter", nil)
	vSym := cs.Symbol("v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cs.Store(ctr, vSym, oop.MustInt(int64(i)))
		if _, err := cs.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C6: group commit by track size ---

func BenchmarkC6_GroupCommit(b *testing.B) {
	for _, ts := range []int{1024, 8192, 32768} {
		b.Run(fmt.Sprintf("track=%d", ts), func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{TrackSize: ts})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				objs := make([]*object.Object, 200)
				for j := range objs {
					ob := object.New(oop.FromSerial(uint64(j)+1), oop.FromSerial(1), 0, object.FormatNamed)
					_ = ob.Store(oop.FromSerial(100), oop.Time(i+1), oop.MustInt(int64(j)))
					objs[j] = ob
				}
				if err := st.Apply(store.Commit{Objects: objs, NextSerial: 201, Time: oop.Time(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C7: replication overhead ---

func BenchmarkC7_ReplicatedCommit(b *testing.B) {
	for _, reps := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas=%d", reps), func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{TrackSize: 4096, Replicas: reps})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ob := object.New(oop.FromSerial(1), oop.FromSerial(1), 0, object.FormatNamed)
				_ = ob.Store(oop.FromSerial(100), oop.Time(i+1), oop.MustInt(int64(i)))
				if err := st.Apply(store.Commit{Objects: []*object.Object{ob}, NextSerial: 2, Time: oop.Time(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C9: entity identity vs key propagation ---

func BenchmarkC9_SharedRename(b *testing.B) {
	const n = 1000
	b.Run("gsdm", func(b *testing.B) {
		_, s := openBenchDB(b)
		cs := s.Core()
		k := cs.DB().Kernel()
		world, _ := s.Path("World", nil)
		dept, _ := cs.NewObject(k.Dictionary)
		_ = cs.Store(world, cs.Symbol("dept"), dept)
		emps, _ := cs.NewObject(k.Set)
		_ = cs.Store(world, cs.Symbol("emps"), emps)
		for i := 0; i < n; i++ {
			e, _ := cs.NewObject(k.Object)
			_ = cs.Store(e, cs.Symbol("dept"), dept)
			_, _ = cs.AddToSet(emps, e)
		}
		if _, err := cs.Commit(); err != nil {
			b.Fatal(err)
		}
		nameSym := cs.Symbol("name")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = cs.Store(dept, nameSym, oop.MustInt(int64(i))) // one store, any fan-out
			if _, err := cs.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relational", func(b *testing.B) {
		emp := relational.New("Employees", "EmpId", "Dept")
		for i := 0; i < n; i++ {
			_ = emp.Insert(int64(i), 0)
		}
		deptRel := relational.New("Departments", "Dept", "Budget")
		_ = deptRel.Insert(0, int64(142000))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := emp.UpdateWhere("Dept", i, "Dept", i+1); err != nil {
				b.Fatal(err)
			}
			if _, err := deptRel.UpdateWhere("Dept", i, "Dept", i+1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-path/gsdm", func(b *testing.B) {
		_, s := openBenchDB(b)
		cs := s.Core()
		k := cs.DB().Kernel()
		world, _ := s.Path("World", nil)
		dept, _ := cs.NewObject(k.Dictionary)
		_ = cs.Store(dept, cs.Symbol("budget"), oop.MustInt(142000))
		e0, _ := cs.NewObject(k.Object)
		_ = cs.Store(e0, cs.Symbol("dept"), dept)
		_ = cs.Store(world, cs.Symbol("e0"), e0)
		if _, err := cs.Commit(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _, _ := cs.Fetch(e0, cs.Symbol("dept"))
			if _, _, err := cs.Fetch(d, cs.Symbol("budget")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-join/relational", func(b *testing.B) {
		emp := relational.New("Employees", "EmpId", "Dept")
		for i := 0; i < n; i++ {
			_ = emp.Insert(int64(i), "Sales")
		}
		deptRel := relational.New("Departments", "Dept", "Budget")
		_ = deptRel.Insert("Sales", int64(142000))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := emp.Join(deptRel, "Dept", "Dept"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C10: working set vs LOOM cache ---

func BenchmarkC10_WorkingSet(b *testing.B) {
	const workingSet = 64
	for _, hist := range []int{8, 256} {
		b.Run(fmt.Sprintf("gemstone/hist=%d", hist), func(b *testing.B) {
			_, s := openBenchDB(b)
			cs := s.Core()
			k := cs.DB().Kernel()
			world, _ := s.Path("World", nil)
			vSym := cs.Symbol("v")
			oops := make([]oop.OOP, workingSet)
			for i := range oops {
				o, _ := cs.NewObject(k.Object)
				oops[i] = o
				_ = cs.Store(world, cs.Symbol(fmt.Sprintf("o%d", i)), o)
			}
			for h := 0; h < hist; h++ {
				for _, o := range oops {
					_ = cs.Store(o, vSym, oop.MustInt(int64(h)))
				}
				if _, err := cs.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			idx := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx = (idx*5 + 3) % workingSet
				if _, _, err := cs.Fetch(oops[idx], vSym); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("loom/hist=%d", hist), func(b *testing.B) {
			mem := loom.New(16)
			vSym := oop.FromSerial(900)
			for i := 0; i < workingSet; i++ {
				ob := object.New(oop.FromSerial(uint64(i)+1), oop.FromSerial(1), 0, object.FormatNamed)
				for h := 1; h <= hist; h++ {
					_ = ob.Store(vSym, oop.Time(h), oop.MustInt(int64(h)))
				}
				if err := mem.Store(ob); err != nil {
					b.Fatal(err)
				}
			}
			idx := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx = (idx*5 + 3) % workingSet
				if _, _, err := mem.Fetch(oop.FromSerial(uint64(idx)+1), vSym); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- OPAL end-to-end benches (send dispatch, block iteration, queries) ---

func BenchmarkOPAL(b *testing.B) {
	db, s := openBenchDB(b)
	s.MustRun(`Object subclass: 'Counter' instVarNames: #('n')`)
	s.MustRun(`Counter compile: 'init n := 0'`)
	s.MustRun(`Counter compile: 'bump n := n + 1. ^n'`)
	s.MustRun(`World at: #ctr put: (Counter new init; yourself)`)
	// Committed classes, as every gsload workload sends through: a class
	// still in the workspace times the own-write read path instead.
	if _, err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	cases := map[string]string{
		"arith":      "1 + 2 * 3 - 4",
		"send":       "ctr bump",
		"block-iter": "(1 to: 1 do: [:i | i]) isNil",
		"collect":    "#(1 2 3 4 5) collect: [:x | x * x]",
		"path":       "World!ctr!n",
	}
	for name, src := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Send cost vs class-hierarchy depth: noop is defined on Depth0 and
	// sent, 100 times per op, to an instance d classes below it.
	s.MustRun(`Object subclass: 'Depth0' instVarNames: #()`)
	s.MustRun(`Depth0 compile: 'noop ^self'`)
	for d := 1; d <= 16; d++ {
		s.MustRun(fmt.Sprintf(`Depth%d subclass: 'Depth%d' instVarNames: #()`, d-1, d))
	}
	if _, err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{0, 4, 16} {
		src := fmt.Sprintf("| o | o := Depth%d new. 1 to: 100 do: [:i | o noop]. o", d)
		b.Run(fmt.Sprintf("send-depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Loop cost vs iteration count: an inlined 1 to: N do: whose body is
	// one temp read, so the per-pass overhead shows.
	for _, n := range []int{10, 100, 1000, 10000} {
		src := fmt.Sprintf("1 to: %d do: [:i | i]", n)
		b.Run(fmt.Sprintf("iter=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// gsload's vm_compute texts, one session per goroutine: run at -cpu 1,2
	// it shows whether sessions computing in parallel scale with cores or
	// contend on shared state.
	s.MustRun(`Object subclass: 'BenchL0' instVarNames: #('n')`)
	s.MustRun(`BenchL0 compile: 'bump n := (n isNil ifTrue: [0] ifFalse: [n]) + 1. ^n'`)
	for d := 1; d <= 4; d++ {
		s.MustRun(fmt.Sprintf(`BenchL%d subclass: 'BenchL%d' instVarNames: #()`, d-1, d))
	}
	s.MustRun(`| a | a := Array new: 200. 1 to: 200 do: [:i | a at: i put: i]. World at: #benchArr put: a`)
	if _, err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	b.Run("vm_compute/parallel", func(b *testing.B) {
		sessions := make([]*gemstone.Session, runtime.GOMAXPROCS(0))
		for i := range sessions {
			se, err := db.Login(gemstone.SystemUser, "swordfish")
			if err != nil {
				b.Fatal(err)
			}
			defer se.Close()
			sessions[i] = se
		}
		var next atomic.Int32
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			se := sessions[next.Add(1)-1]
			for i := 0; pb.Next(); i++ {
				if _, err := se.Execute(vmComputeTexts[i%len(vmComputeTexts)]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// vmComputeTexts are gsload's four vm_compute requests at their base sizes
// (benchmark/workloads.go): a spin loop, 500 sends to an instance four
// classes below the method's definer, and inject:into: and collect: over a
// 200-element Array.
var vmComputeTexts = []string{
	"1 to: 4000 do: [:i | i]. 'ok'",
	"| b | b := BenchL4 new. 1 to: 500 do: [:i | b bump]. b bump",
	"| s | s := 0. 1 to: 10 do: [:k | s := World!benchArr inject: s into: [:a :x | a + x]]. s",
	"| s | s := 0. 1 to: 4 do: [:k | s := (World!benchArr collect: [:x | x * 1]) inject: s into: [:a :x | a + x]]. s",
}
