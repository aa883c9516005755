package algebra

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/oop"
)

// --- Bugfix regressions ---

// An index scan whose directory disappears between planning and execution
// must surface the error, not silently return zero rows.
func TestIndexScanErrorPropagates(t *testing.T) {
	s, _ := buildAcmeDB(t)
	x, _ := s.Global("X")
	emps, _, _ := s.Fetch(x, s.Symbol("Employees"))
	if err := s.CreateIndex(emps, []string{"Salary"}); err != nil {
		t.Fatal(err)
	}
	q, err := calculus.Parse("{E: e} where (e in X!Employees) and e!Salary = 24000")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Optimize(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "index-scan") {
		t.Fatalf("expected an index plan:\n%s", plan.Explain())
	}
	// Sanity: the plan works while the directory exists.
	if rows, _, err := plan.Exec(s); err != nil || len(rows) != 1 {
		t.Fatalf("pre-drop exec: rows=%d err=%v", len(rows), err)
	}
	// Drop the directory out from under the compiled plan.
	if err := s.DropIndex(emps, []string{"Salary"}); err != nil {
		t.Fatal(err)
	}
	_, _, err = plan.Exec(s)
	if err == nil {
		t.Fatal("index scan with no directory returned no error")
	}
	if !errors.Is(err, core.ErrNoDirectory) {
		t.Fatalf("err = %v, want wrapped core.ErrNoDirectory", err)
	}
	// Dropping twice reports the miss too.
	if err := s.DropIndex(emps, []string{"Salary"}); !errors.Is(err, core.ErrNoDirectory) {
		t.Fatalf("second drop: err = %v", err)
	}
}

// valueToKey must cover every value kind without panicking; values with no
// key form (empty chars, unknown kinds) report ok=false.
func TestValueToKeyAllKinds(t *testing.T) {
	cases := []struct {
		name string
		v    calculus.Value
		ok   bool
	}{
		{"nil", calculus.Value{Kind: calculus.VNil}, true},
		{"bool-true", calculus.Value{Kind: calculus.VBool, B: true}, true},
		{"bool-false", calculus.Value{Kind: calculus.VBool, B: false}, true},
		{"num", calculus.Value{Kind: calculus.VNum, N: 3.5}, true},
		{"num-zero", calculus.Value{Kind: calculus.VNum}, true},
		{"str", calculus.Value{Kind: calculus.VStr, S: "Sales"}, true},
		{"str-empty", calculus.Value{Kind: calculus.VStr, S: ""}, true},
		{"char", calculus.Value{Kind: calculus.VChar, S: "x"}, true},
		{"char-multibyte", calculus.Value{Kind: calculus.VChar, S: "é"}, true},
		{"char-empty", calculus.Value{Kind: calculus.VChar, S: ""}, false}, // regression: panicked
		{"obj", calculus.Value{Kind: calculus.VObj, O: oop.FromSerial(7)}, true},
		{"obj-nil", calculus.Value{Kind: calculus.VObj, O: oop.Nil}, true},
		{"unknown-kind", calculus.Value{Kind: calculus.ValueKind(99)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("valueToKey panicked: %v", r)
				}
			}()
			if _, ok := valueToKey(c.v); ok != c.ok {
				t.Errorf("valueToKey(%+v) ok = %v, want %v", c.v, ok, c.ok)
			}
		})
	}
}

// Planning must cost ranges from the O(1) member count, never by fetching
// member bodies: directory.scans stays flat across Optimize while
// query.member.counts moves.
func TestPlanningDoesNotScanMembers(t *testing.T) {
	s, _ := buildAcmeDB(t)
	q, err := calculus.Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	obs := s.DB().Obs()
	before := obs.Snapshot()
	if _, err := Optimize(q, s); err != nil {
		t.Fatal(err)
	}
	after := obs.Snapshot()
	if d := after.Counter("directory.scans") - before.Counter("directory.scans"); d != 0 {
		t.Errorf("planning performed %d member scans, want 0", d)
	}
	if d := after.Counter("query.cursor.opens") - before.Counter("query.cursor.opens"); d != 0 {
		t.Errorf("planning opened %d member cursors, want 0", d)
	}
	if after.Counter("query.member.counts") <= before.Counter("query.member.counts") {
		t.Error("planning should cost ranges via MemberCount")
	}
}

// --- Streaming executor invariants ---

// Prebound variables supplied via ExecWith stay visible through the slot
// frame exactly as the old map-clone executor layered them.
func TestExecWithPreboundBinding(t *testing.T) {
	s, objs := buildAcmeDB(t)
	q, err := calculus.Parse("{M: m} where (m in d!Managers)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := OptimizeWithBound(q, s, map[string]bool{"d": true})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := plan.ExecWith(s, calculus.Binding{"d": objs["A12"]})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want Sales' 2 managers", len(rows))
	}
	// Result tuples must not alias executor-internal storage: a second run
	// cannot disturb the first run's rows.
	first := fmt.Sprint(rows)
	if _, _, err := plan.ExecWith(s, calculus.Binding{"d": objs["A16"]}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != first {
		t.Error("tuples alias reused executor storage")
	}
}

// --- Randomized plan equivalence ---

// canonical renders a result set order-insensitively for comparison.
func canonical(ts []Tuple) string {
	SortTuples(ts)
	var b strings.Builder
	for _, tp := range ts {
		for i, l := range tp.Labels {
			fmt.Fprintf(&b, "%s=%v;", l, tp.Values[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRandomizedPlanEquivalence drives random queries over a random dataset
// through every plan family — naive translate, pushdown-only and fully
// optimized (with and without an index available) — and insists they all
// compute the same relation.
func TestRandomizedPlanEquivalence(t *testing.T) {
	s, _ := buildAcmeDB(t)
	rng := rand.New(rand.NewSource(1984)) // fixed seed: reproducible failures

	// Grow a random Staff set alongside the Acme fixture.
	x, _ := s.Global("X")
	k := s.DB().Kernel()
	staff, err := s.NewObject(k.Set)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store(x, s.Symbol("Staff"), staff); err != nil {
		t.Fatal(err)
	}
	grades := []string{"junior", "senior", "principal"}
	for i := 0; i < 24; i++ {
		m, err := s.NewObject(k.Dictionary)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := s.NewString(grades[rng.Intn(len(grades))])
		_ = s.Store(m, s.Symbol("Salary"), oop.MustInt(int64(10000+rng.Intn(30)*1000)))
		_ = s.Store(m, s.Symbol("Grade"), g)
		if _, err := s.AddToSet(staff, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	ops := []string{">", ">=", "<", "<=", "="}
	queries := []string{paperQuery}
	for i := 0; i < 12; i++ {
		op := ops[rng.Intn(len(ops))]
		threshold := 10000 + rng.Intn(31)*1000
		queries = append(queries,
			fmt.Sprintf("{E: e} where (e in X!Staff) and e!Salary %s %d", op, threshold))
	}
	queries = append(queries,
		"{E: e} where (e in X!Staff) and e!Grade = 'senior'",
		"{E: e} where (e in X!Staff) and (e!Salary > 20000 or e!Grade = 'junior')",
		"{E: e} where (e in X!Staff) and not e!Salary < 25000",
	)

	run := func(phase string) {
		for _, src := range queries {
			q, err := calculus.Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			naive, err := Translate(q)
			if err != nil {
				t.Fatal(err)
			}
			push, err := OptimizePushdownOnly(q, s)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := Optimize(q, s)
			if err != nil {
				t.Fatal(err)
			}
			nRows, _, err := naive.Exec(s)
			if err != nil {
				t.Fatalf("naive %q: %v", src, err)
			}
			pRows, _, err := push.Exec(s)
			if err != nil {
				t.Fatalf("pushdown %q: %v", src, err)
			}
			oRows, _, err := opt.Exec(s)
			if err != nil {
				t.Fatalf("optimized %q: %v", src, err)
			}
			want := canonical(nRows)
			for name, got := range map[string]string{
				"pushdown": canonical(pRows),
				"opt":      canonical(oRows),
			} {
				if got != want {
					t.Errorf("%s: %s diverges on %q:\n got %q\nwant %q", phase, name, src, got, want)
				}
			}
		}
	}

	run("scan")
	if err := s.CreateIndex(staff, []string{"Salary"}); err != nil {
		t.Fatal(err)
	}
	run("index") // same queries, now index-eligible plans

	// Pending salaries in every third member, then a dial at the last
	// commit: every plan reads that committed state, pending writes
	// included in none, so the index plan agrees with the scans.
	var members []oop.OOP
	if err := s.MembersFunc(staff, func(m oop.OOP) error {
		members = append(members, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(members); i += 3 {
		if err := s.Store(members[i], s.Symbol("Salary"), oop.MustInt(int64(10000+rng.Intn(31)*1000))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetTimeDial(s.DB().TxnManager().LastCommitted()); err != nil {
		t.Fatal(err)
	}
	run("dialled")
}
