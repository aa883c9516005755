package algebra

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/oop"
)

// buildAcmeDB constructs the §5.1 database fragment:
//
//	Acme: {Departments: {A12: {Name:'Sales', Managers:{'Nathen','Roberts'}, Budget:142000},
//	                     A16: {Name:'Research', Managers:{'Carter'}, Budget:256500}},
//	       Employees: {E62: {Name:{First:'Ellen',Last:'Burns'}, Salary:24650, Depts:{'Marketing'}},
//	                   E83: {Name:{First:'Robert',Last:'Peters'}, Salary:24000, Depts:{'Sales','Planning'}}, ...}}
//
// plus extra rows so the paper query has a verifiable, non-trivial answer.
func buildAcmeDB(t testing.TB) (*core.Session, map[string]oop.OOP) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := db.NewSession(auth.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	k := db.Kernel()
	objs := map[string]oop.OOP{}

	newDict := func() oop.OOP { o, _ := s.NewObject(k.Dictionary); return o }
	newSet := func() oop.OOP { o, _ := s.NewObject(k.Set); return o }
	str := func(v string) oop.OOP { o, _ := s.NewString(v); return o }
	stringSet := func(vals ...string) oop.OOP {
		set := newSet()
		for _, v := range vals {
			if _, err := s.AddToSet(set, str(v)); err != nil {
				t.Fatal(err)
			}
		}
		return set
	}

	x := newDict()
	world, _ := s.Global("World")
	_ = s.Store(world, s.Symbol("X"), x)
	if err := s.SetGlobal("X", x); err != nil {
		t.Fatal(err)
	}

	departments := newDict()
	employees := newDict()
	_ = s.Store(x, s.Symbol("Departments"), departments)
	_ = s.Store(x, s.Symbol("Employees"), employees)

	dept := func(label, name string, budget int64, managers ...string) oop.OOP {
		d := newDict()
		_ = s.Store(d, s.Symbol("Name"), str(name))
		_ = s.Store(d, s.Symbol("Managers"), stringSet(managers...))
		_ = s.Store(d, s.Symbol("Budget"), oop.MustInt(budget))
		_ = s.Store(departments, s.Symbol(label), d)
		objs[label] = d
		return d
	}
	dept("A12", "Sales", 142000, "Nathen", "Roberts")
	dept("A16", "Research", 256500, "Carter")

	emp := func(label, first, last string, salary int64, depts ...string) oop.OOP {
		e := newDict()
		n := newDict()
		_ = s.Store(n, s.Symbol("First"), str(first))
		_ = s.Store(n, s.Symbol("Last"), str(last))
		_ = s.Store(e, s.Symbol("Name"), n)
		_ = s.Store(e, s.Symbol("Salary"), oop.MustInt(salary))
		_ = s.Store(e, s.Symbol("Depts"), stringSet(depts...))
		_ = s.Store(employees, s.Symbol(label), e)
		objs[label] = e
		return e
	}
	emp("E62", "Ellen", "Burns", 24650, "Marketing")
	emp("E83", "Robert", "Peters", 24000, "Sales", "Planning")
	// Extra employees so the paper query selects someone: salary must
	// exceed 10% of the department budget (14,200 for Sales).
	emp("E90", "Grace", "Hopper", 15000, "Sales")
	emp("E91", "Alan", "Kay", 30000, "Research")     // 30000 > 25650: selected
	emp("E92", "Ada", "Lovelace", 25000, "Research") // 25000 < 25650: not selected

	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, objs
}

const paperQuery = `{Emp: e, Mgr: m} where
 (e in X!Employees) and
 (d in X!Departments) [(m in d!Managers) and
 (d!Name in e!Depts) and (e!Salary > 0.10 * d!Budget)]`

// expected result: employees whose salary exceeds 10% of a department they
// belong to, paired with each manager of that department.
// E83 (24000 > 14200, Sales): Nathen, Roberts.
// E90 (15000 > 14200, Sales): Nathen, Roberts.
// E91 (30000 > 25650, Research): Carter.
func expectedPairs(objs map[string]oop.OOP, s *core.Session) map[[2]string]bool {
	return map[[2]string]bool{
		{"E83", "Nathen"}:  true,
		{"E83", "Roberts"}: true,
		{"E90", "Nathen"}:  true,
		{"E90", "Roberts"}: true,
		{"E91", "Carter"}:  true,
	}
}

func decodePairs(t *testing.T, s *core.Session, objs map[string]oop.OOP, rows []Tuple) map[[2]string]bool {
	t.Helper()
	label := map[oop.OOP]string{}
	for k, v := range objs {
		label[v] = k
	}
	got := map[[2]string]bool{}
	for _, r := range rows {
		e, _ := r.Get("Emp")
		m, _ := r.Get("Mgr")
		mb, err := s.BytesOf(m)
		if err != nil {
			t.Fatalf("manager not a string: %v", err)
		}
		got[[2]string{label[e], string(mb)}] = true
	}
	return got
}

func TestPaperQueryNaive(t *testing.T) {
	s, objs := buildAcmeDB(t)
	rows, stats, err := RunNaive(s, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	got := decodePairs(t, s, objs, rows)
	want := expectedPairs(objs, s)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing pair %v", k)
		}
	}
	if stats.MembersScanned == 0 {
		t.Error("naive plan should scan")
	}
}

func TestPaperQueryOptimizedMatchesNaive(t *testing.T) {
	s, objs := buildAcmeDB(t)
	naive, nStats, err := RunNaive(s, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	opt, oStats, err := Run(s, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	gn := decodePairs(t, s, objs, naive)
	go_ := decodePairs(t, s, objs, opt)
	if len(gn) != len(go_) {
		t.Fatalf("plans disagree: naive %v, optimized %v", gn, go_)
	}
	for k := range gn {
		if !go_[k] {
			t.Errorf("optimized missing %v", k)
		}
	}
	// Pushdown must strictly reduce predicate evaluations: the naive plan
	// evaluates the full conjunction on the whole cross product.
	if oStats.PredEvals >= nStats.PredEvals {
		t.Errorf("pushdown did not reduce predicate evals: naive %d, opt %d", nStats.PredEvals, oStats.PredEvals)
	}
}

func TestIndexSelection(t *testing.T) {
	s, objs := buildAcmeDB(t)
	x, _ := s.Global("X")
	emps, _, _ := s.Fetch(x, s.Symbol("Employees"))
	if err := s.CreateIndex(emps, []string{"Salary"}); err != nil {
		t.Fatal(err)
	}
	src := "{E: e} where (e in X!Employees) and e!Salary = 24000"
	q, err := calculus.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Optimize(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "index-scan") {
		t.Fatalf("expected index scan in plan:\n%s", plan.Explain())
	}
	rows, stats, err := plan.Exec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if e, _ := rows[0].Get("E"); e != objs["E83"] {
		t.Error("wrong employee")
	}
	if stats.IndexProbes != 1 || stats.MembersScanned != 0 {
		t.Errorf("stats = %+v, want pure index access", stats)
	}
}

func TestIndexRangeComparison(t *testing.T) {
	s, objs := buildAcmeDB(t)
	x, _ := s.Global("X")
	emps, _, _ := s.Fetch(x, s.Symbol("Employees"))
	if err := s.CreateIndex(emps, []string{"Salary"}); err != nil {
		t.Fatal(err)
	}
	rows, stats, err := Run(s, "{E: e} where (e in X!Employees) and e!Salary >= 25000")
	if err != nil {
		t.Fatal(err)
	}
	// Salaries: E62=24650, E83=24000, E90=15000, E91=30000, E92=25000.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	seen := map[oop.OOP]bool{}
	for _, r := range rows {
		e, _ := r.Get("E")
		seen[e] = true
	}
	if !seen[objs["E91"]] || !seen[objs["E92"]] {
		t.Error("wrong range result")
	}
	if stats.IndexProbes == 0 {
		t.Error("range should use the directory")
	}
	// Mirrored comparison (const <= var!path).
	rows2, _, err := Run(s, "{E: e} where (e in X!Employees) and 25000 <= e!Salary")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Errorf("mirrored rows = %d", len(rows2))
	}
}

func TestDependentRangeNoIndex(t *testing.T) {
	// d!Managers is dependent: must fall back to scans and still be right.
	s, _ := buildAcmeDB(t)
	rows, _, err := Run(s, "{M: m} where (d in X!Departments) [(m in d!Managers) and d!Name = 'Sales']")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rows {
		m, _ := r.Get("M")
		b, _ := s.BytesOf(m)
		names[string(b)] = true
	}
	if !names["Nathen"] || !names["Roberts"] || len(names) != 2 {
		t.Errorf("managers = %v", names)
	}
}

func TestOrAndNotPredicates(t *testing.T) {
	s, objs := buildAcmeDB(t)
	rows, _, err := Run(s, "{E: e} where (e in X!Employees) and (e!Salary = 24000 or e!Salary = 15000)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("or rows = %d", len(rows))
	}
	rows, _, err = Run(s, "{E: e} where (e in X!Employees) and not e!Salary < 25000")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // E91 30000, E92 25000
		t.Fatalf("not rows = %d", len(rows))
	}
	_ = objs
}

func TestNestedPathPredicate(t *testing.T) {
	s, objs := buildAcmeDB(t)
	rows, _, err := Run(s, "{E: e} where (e in X!Employees) and e!Name!Last = 'Peters'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if e, _ := rows[0].Get("E"); e != objs["E83"] {
		t.Error("wrong employee by nested path")
	}
}

func TestEmptyRangeSource(t *testing.T) {
	s, _ := buildAcmeDB(t)
	// Missing element -> nil source -> empty result, not an error.
	rows, _, err := Run(s, "{E: e} where (e in X!Contractors)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestErrorCases(t *testing.T) {
	s, _ := buildAcmeDB(t)
	// Range over a simple value.
	if _, _, err := Run(s, "{E: e} where (e in X!Departments!A12!Budget)"); err == nil {
		t.Error("range over number should fail")
	}
	// Arithmetic on strings.
	if _, _, err := Run(s, "{E: e} where (e in X!Employees) and e!Name + 1 = 2"); err == nil {
		t.Error("arithmetic on object should fail")
	}
	// No ranges at all.
	if _, err := calculus.Parse("{E: e} where e!x = 1"); err == nil {
		t.Error("unbound target should fail at parse")
	}
}

func TestExplainShapes(t *testing.T) {
	s, _ := buildAcmeDB(t)
	q, err := calculus.Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	naive, _ := Translate(q)
	opt, _ := Optimize(q, s)
	if !strings.Contains(naive.Explain(), "select") || !strings.Contains(naive.Explain(), "scan") {
		t.Errorf("naive explain:\n%s", naive.Explain())
	}
	// The optimized plan splits the conjunction into multiple selects.
	if strings.Count(opt.Explain(), "select") < 2 {
		t.Errorf("optimized explain should show pushdown:\n%s", opt.Explain())
	}
}

// The join order must not flip as the data grows. Past ~1,070 employees the
// filtered employee scan is estimated above the constant guessed for the
// dependent d!Managers range; were cost alone to decide, pure fan-out would
// go ahead of the filter and every (department, manager) pair would rescan
// every employee.
func TestJoinOrderStableWithDataSize(t *testing.T) {
	s, _ := buildAcmeDB(t)
	q, err := calculus.Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Optimize(q, s)
	if err != nil {
		t.Fatal(err)
	}
	const employees = 1605
	x, _ := s.Global("X")
	emps, _, _ := s.Fetch(x, s.Symbol("Employees"))
	k := s.DB().Kernel()
	for i := 5; i < employees; i++ {
		e, _ := s.NewObject(k.Dictionary)
		depts, _ := s.NewObject(k.Set)
		name, _ := s.NewString([]string{"Research", "Sales"}[i%2])
		_, _ = s.AddToSet(depts, name)
		_ = s.Store(e, s.Symbol("Salary"), oop.MustInt(int64(1000+i%50)))
		_ = s.Store(e, s.Symbol("Depts"), depts)
		_ = s.Store(emps, s.Symbol(fmt.Sprintf("F%d", i)), e)
	}
	large, err := Optimize(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if large.Explain() != small.Explain() {
		t.Errorf("plan changed shape with data size:\n%s\nwas:\n%s", large.Explain(), small.Explain())
	}
	rows, stats, err := large.Exec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("rows = %d, want the fixture's 5", len(rows))
	}
	if stats.MembersScanned >= 20*employees {
		t.Errorf("MembersScanned = %d, want < %d", stats.MembersScanned, 20*employees)
	}
}

func TestSortTuples(t *testing.T) {
	ts := []Tuple{
		{Labels: []string{"A"}, Values: []oop.OOP{oop.FromSerial(2)}},
		{Labels: []string{"A"}, Values: []oop.OOP{oop.FromSerial(1)}},
	}
	SortTuples(ts)
	if ts[0].Values[0] != oop.FromSerial(1) {
		t.Error("SortTuples order")
	}
	if _, ok := ts[0].Get("B"); ok {
		t.Error("Get on missing label")
	}
}

func TestTimeDialedQuery(t *testing.T) {
	// Queries respect the session dial: run the paper query against a past
	// state after changing a salary.
	s, objs := buildAcmeDB(t)
	_ = s.Store(objs["E83"], s.Symbol("Salary"), oop.MustInt(5000)) // drops below threshold
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _, err := Run(s, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	got := decodePairs(t, s, objs, rows)
	if got[[2]string{"E83", "Nathen"}] {
		t.Error("E83 should no longer qualify")
	}
	if err := s.SetTimeDial(1); err != nil {
		t.Fatal(err)
	}
	rows, _, err = Run(s, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	got = decodePairs(t, s, objs, rows)
	if !got[[2]string{"E83", "Nathen"}] {
		t.Error("dialed query should see E83's old salary")
	}
}

func TestPushdownOnlyMatchesOthers(t *testing.T) {
	s, objs := buildAcmeDB(t)
	q, err := calculus.Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	push, err := OptimizePushdownOnly(q, s)
	if err != nil {
		t.Fatal(err)
	}
	rows, pStats, err := push.Exec(s)
	if err != nil {
		t.Fatal(err)
	}
	got := decodePairs(t, s, objs, rows)
	want := expectedPairs(objs, s)
	if len(got) != len(want) {
		t.Fatalf("pushdown-only answer differs: %v", got)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing %v", k)
		}
	}
	// Pushdown must beat the naive plan on predicate evaluations.
	_, nStats, err := RunNaive(s, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if pStats.PredEvals >= nStats.PredEvals {
		t.Errorf("pushdown evals %d >= naive %d", pStats.PredEvals, nStats.PredEvals)
	}
	// Ranges stay in written order: scan of e precedes scan of d in the
	// plan tree (d scans appear above e in the printed pipeline).
	plan := push.Explain()
	if !strings.Contains(plan, "scan") {
		t.Errorf("plan:\n%s", plan)
	}
}
