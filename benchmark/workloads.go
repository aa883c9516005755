package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/gemstone"
)

// op is one generated request: a block of OPAL source, the answer it must
// print, and whether a Commit follows. The engine sees only source; the
// other fields serve the oracle and the component rung of the traced run.
type op struct {
	kind   string // op family within the workload
	source string
	want   string
	commit bool

	key   [2]int // commit ops: the object written and its element, in the generator's model
	value int64  // commit ops: the value the write leaves there
	elems int    // commit ops: elements the transaction binds anew

	query string // calculus text inside source, "" if none
	rows  int    // rows that query returns

	dialObj  string // time-dialled reads: the global holding the object,
	dialElem string // the element read
	dialT    uint64 // and the dial setting
}

// generator produces one client's seeded op sequence. It is told of every
// acknowledged commit, so later ops can expect to read their own writes.
type generator interface {
	next() op
	ack(o op, t uint64)
}

// workload is one traffic mix with the data it runs against.
type workload interface {
	// load populates a freshly bootstrapped database and commits.
	load(s *gemstone.Session) error
	// client returns the generator of client c of n; partitions of written
	// data are disjoint across clients, so commits cannot conflict.
	client(seed int64, c, n int) generator
	// verify checks, on a session over the reopened database, that every
	// acknowledged write of gens is readable.
	verify(s *gemstone.Session, gens []generator) error
	// sample names an object whose encoding cost the traced run reports.
	sample() string
}

// newWorkload sizes a workload's data and loops by scale; 1 is the
// benchmark, the smoke test runs at a hundredth.
func newWorkload(name string, scale float64) (workload, error) {
	scaled := func(n, floor int) int { return max(int(float64(n)*scale), floor) }
	switch name {
	case "vm_compute":
		return &vmCompute{spin: scaled(vmSpin, vmVariants+1), sends: scaled(vmSends, vmVariants+1)}, nil
	case "oltp_commit":
		return &oltpCommit{accounts: scaled(oltpAccounts, 64)}, nil
	case "query_read":
		emps := scaled(qEmps, 64)
		if emps%qBadgeMul == 0 {
			emps++ // keep badges a permutation
		}
		return &queryRead{emps: emps}, nil
	case "history_mixed":
		return &historyMixed{depth: uint64(scaled(hDepth, 2))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"vm_compute", "oltp_commit", "query_read", "history_mixed"}

// deck deals op kinds in exact proportion: every pass over it holds each
// kind as often as the mix says, in shuffled order. Two seeds then differ in
// the order and the arguments of their ops, not in how much of each kind
// they run — which, on a mix of cheap and dear ops, would otherwise be much
// of the difference between two runs.
type deck struct {
	rng   *rand.Rand
	cards []int // one pass: counts[k] cards of kind k
	left  []int
}

// clientRand is client c's source of randomness under a run's seed.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c)))
}

// newDeck makes client c's deck; counts[k] is kind k's share of a pass.
func newDeck(seed int64, c int, counts ...int) *deck {
	d := &deck{rng: clientRand(seed, c)}
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	return d
}

func (d *deck) draw() int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.cards...)
		d.rng.Shuffle(len(d.left), func(i, k int) { d.left[i], d.left[k] = d.left[k], d.left[i] })
	}
	kind := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return kind
}

type readOnly struct{}

func (readOnly) ack(op, uint64)                              {}
func (readOnly) verify(*gemstone.Session, []generator) error { return nil }

// runAll executes setup blocks in order.
func runAll(s *gemstone.Session, blocks ...string) error {
	for _, b := range blocks {
		if _, err := s.Run(b); err != nil {
			return fmt.Errorf("%w in %q", err, clip(b))
		}
	}
	return nil
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

// --- vm_compute -------------------------------------------------------------

// vmCompute is interpreter work and nothing else: no commit, no query, a
// few object fetches. Four sources of 2-6 ms each, drawn by seed; each has
// vmVariants texts, so a source-text cache would see repeats.
type vmCompute struct {
	readOnly
	spin, sends int
}

const (
	vmVariants = 64
	vmSpin     = 4000 // the C12 spin loop
	vmSends    = 500
	vmArray    = 200
	vmArraySum = vmArray * (vmArray + 1) / 2
	vmInjects  = 10 // passes over the Array per request, so a request is ms, not µs
	vmCollects = 4
)

func (*vmCompute) sample() string { return "World!benchArr" }

func (*vmCompute) load(s *gemstone.Session) error {
	blocks := []string{
		`Object subclass: 'BenchL0' instVarNames: #('n')`,
		`BenchL0 compile: 'bump n := (n isNil ifTrue: [0] ifFalse: [n]) + 1. ^n'`,
	}
	for i := 1; i <= 4; i++ {
		blocks = append(blocks, fmt.Sprintf(`BenchL%d subclass: 'BenchL%d' instVarNames: #()`, i-1, i))
	}
	blocks = append(blocks, fmt.Sprintf(
		`| a | a := Array new: %d. 1 to: %d do: [:i | a at: i put: i]. World at: #benchArr put: a`, vmArray, vmArray))
	if err := runAll(s, blocks...); err != nil {
		return err
	}
	_, err := s.Commit()
	return err
}

type vmGen struct {
	readOnly
	w *vmCompute
	*deck
}

func (w *vmCompute) client(seed int64, c, n int) generator {
	return &vmGen{w: w, deck: newDeck(seed, c, 4, 4, 4, 4)}
}

func (g *vmGen) next() op {
	v := g.rng.Intn(vmVariants)
	switch g.draw() {
	case 0: // the C12 request
		return op{kind: "spin", want: "'ok'",
			source: fmt.Sprintf("1 to: %d do: [:i | i]. 'ok'", g.w.spin-v)}
	case 1: // sends to an instance 4 classes below the method's definer
		n := g.w.sends - v
		return op{kind: "send", want: strconv.Itoa(n + 1),
			source: fmt.Sprintf("| b | b := BenchL4 new. 1 to: %d do: [:i | b bump]. b bump", n)}
	case 2:
		return op{kind: "inject", want: strconv.Itoa(vmInjects*vmArraySum + v),
			source: fmt.Sprintf("| s | s := %d. 1 to: %d do: [:k | s := World!benchArr inject: s into: [:a :x | a + x]]. s", v, vmInjects)}
	default:
		return op{kind: "collect", want: strconv.Itoa(vmCollects * vmArraySum * (v + 1)),
			source: fmt.Sprintf("| s | s := 0. 1 to: %d do: [:k | s := (World!benchArr collect: [:x | x * %d]) inject: s into: [:a :x | a + x]]. s", vmCollects, v+1)}
	}
}

// --- oltp_commit ------------------------------------------------------------

// oltpCommit is the short update transaction: read-modify-write two
// elements of one account, commit. The accounts are wide, not deep: the
// keyspace is several times the track cache and history stays shallow.
type oltpCommit struct{ accounts int }

const (
	oltpAccounts = 8192
	oltpPad      = 900 // bytes of payload string per account
	oltpBatch    = 512
	oltpOpening  = 1000
)

func (*oltpCommit) sample() string { return "World!accts!1" }

func (w *oltpCommit) load(s *gemstone.Session) error {
	if err := runAll(s,
		`Object subclass: 'Account' instVarNames: #('balance' 'seq' 'pad')`,
		fmt.Sprintf(`World at: #accts put: (Array new: %d)`, w.accounts),
	); err != nil {
		return err
	}
	pad := strings.Repeat("x", oltpPad)
	for lo := 1; lo <= w.accounts; lo += oltpBatch {
		if err := runAll(s, fmt.Sprintf(`| accts a pad | accts := World!accts. pad := '%s'.
			%d to: %d do: [:i | a := Account new.
				a at: #balance put: %d. a at: #seq put: 0. a at: #pad put: pad copy.
				accts at: i put: a]`, pad, lo, min(lo+oltpBatch-1, w.accounts), oltpOpening)); err != nil {
			return err
		}
	}
	_, err := s.Commit()
	return err
}

// oltpGen owns accounts [lo, hi] and remembers what it left in each.
type oltpGen struct {
	rng    *rand.Rand
	lo, hi int
	seq    int64
	left   map[int]account
}

type account struct{ balance, seq int64 }

func (w *oltpCommit) client(seed int64, c, n int) generator {
	per := w.accounts / n
	return &oltpGen{
		rng: clientRand(seed, c),
		lo:  c*per + 1, hi: (c + 1) * per,
		left: map[int]account{},
	}
}

func (g *oltpGen) next() op {
	i := g.lo + g.rng.Intn(g.hi-g.lo+1)
	delta := int64(1 + g.rng.Intn(100))
	bal := int64(oltpOpening)
	if a, ok := g.left[i]; ok {
		bal = a.balance
	}
	bal += delta
	g.seq++
	return op{kind: "update", commit: true, key: [2]int{i}, value: bal, elems: 2, want: strconv.FormatInt(bal, 10),
		source: fmt.Sprintf("| a | a := World!accts at: %d. a at: #balance put: (a at: #balance) + %d. a at: #seq put: %d. a at: #balance",
			i, delta, g.seq)}
}

func (g *oltpGen) ack(o op, _ uint64) { g.left[o.key[0]] = account{o.value, g.seq} }

func (*oltpCommit) verify(s *gemstone.Session, gens []generator) error {
	for _, gen := range gens {
		g := gen.(*oltpGen)
		for i, a := range g.left {
			got, err := s.Run(fmt.Sprintf("| a | a := World!accts at: %d. (a at: #balance) printString , ' ' , (a at: #seq) printString", i))
			want := fmt.Sprintf("'%d %d'", a.balance, a.seq)
			if err != nil || got != want {
				return fmt.Errorf("account %d after reopen: got %s (err %v), acknowledged %s", i, got, err, want)
			}
		}
	}
	return nil
}

// --- query_read -------------------------------------------------------------

// queryRead is declarative reads over cache-resident data: indexed
// selections, the paper's §5.1 join, a full scan and plain path
// navigation. Nothing is written.
type queryRead struct {
	readOnly
	emps int
}

const (
	qEmps       = 2000
	qBatch      = 500
	qSalaryBase = 30000
	qSalaryStep = 7
	qBadgeMul   = 37 // coprime with qEmps: badges are a permutation
	qFillers    = 80 // with the five named employees: the 85-employee Acme set
	qMaxRows    = 20
)

func (*queryRead) sample() string { return "World!acme!Departments!A12" }

func qSalary(i int) int              { return qSalaryBase + qSalaryStep*i }
func (w *queryRead) badge(i int) int { return i * qBadgeMul % w.emps }

func (w *queryRead) load(s *gemstone.Session) error {
	blocks := []string{
		`Object subclass: 'Employee' instVarNames: #('salary' 'badge' 'dept')`,
		`World at: #Emps put: Set new`,
	}
	for lo := 0; lo < w.emps; lo += qBatch {
		blocks = append(blocks, fmt.Sprintf(`| emps e | emps := World!Emps.
			%d to: %d do: [:i | e := Employee new.
				e at: #salary put: %d + (%d * i). e at: #badge put: (i * %d) \\ %d. e at: #dept put: i \\ 20.
				emps add: e]`, lo, min(lo+qBatch, w.emps)-1, qSalaryBase, qSalaryStep, qBadgeMul, w.emps))
	}
	blocks = append(blocks, `World!Emps indexOn: 'salary'`)
	// The §5.1 database (EXPERIMENTS.md "calc"), under World!acme.
	blocks = append(blocks, `| x depts d |
		x := Dictionary new. World at: #acme put: x.
		depts := Dictionary new. x at: 'Departments' put: depts.
		x at: 'Employees' put: Dictionary new.
		d := Dictionary new. d at: 'Name' put: 'Sales'.
		d at: 'Managers' put: (Set new add: 'Nathen'; add: 'Roberts'; yourself).
		d at: 'Budget' put: 142000. depts at: 'A12' put: d.
		d := Dictionary new. d at: 'Name' put: 'Research'.
		d at: 'Managers' put: (Set new add: 'Carter'; yourself).
		d at: 'Budget' put: 256500. depts at: 'A16' put: d`)
	emp := func(label, last string, salary int, dept string) {
		blocks = append(blocks, fmt.Sprintf(`| e n | e := Dictionary new.
			n := Dictionary new. n at: 'Last' put: '%s'. e at: 'Name' put: n.
			e at: 'Salary' put: %d. e at: 'Depts' put: (Set new add: '%s'; yourself).
			World!acme!Employees at: '%s' put: e`, last, salary, dept, label))
	}
	emp("E62", "Burns", 24650, "Marketing")
	emp("E83", "Peters", 24000, "Sales")
	emp("E90", "Hopper", 15000, "Sales")
	emp("E91", "Kay", 30000, "Research")
	emp("E92", "Lovelace", 25000, "Research")
	for i := 0; i < qFillers; i++ {
		dept := "Sales"
		if i%2 == 0 {
			dept = "Research"
		}
		emp(fmt.Sprintf("F%d", i), fmt.Sprintf("Filler%d", i), qFillerSalary(i), dept)
	}
	for i := 0; i < qFillers/4; i++ {
		blocks = append(blocks, fmt.Sprintf(`World!acme!Departments!A12!Managers add: 'M%d'`, i))
	}
	if err := runAll(s, blocks...); err != nil {
		return err
	}
	_, err := s.Commit()
	return err
}

func qFillerSalary(i int) int { return 1000 + i%50 }

// qJoinRows is what the §5.1 query selects here: Peters and Hopper with
// each of Sales' 2+qFillers/4 managers, Kay with Research's one.
const qJoinRows = 2*(2+qFillers/4) + 1

type queryGen struct {
	readOnly
	w *queryRead
	*deck
}

func (w *queryRead) client(seed int64, c, n int) generator {
	return &queryGen{w: w, deck: newDeck(seed, c, 2, 2, 4, 4, 4, 4)}
}

// selection wraps a one-variable query over World!Emps so the answer
// checks which rows came back, not only how many: it sums field over them.
func selection(kind, pred, field string, rows, sum int) op {
	q := "{E: e} where (e in World!Emps) and " + pred
	return op{kind: kind, query: q, rows: rows, want: strconv.Itoa(sum),
		source: fmt.Sprintf("(System query: '%s') inject: 0 into: [:a :r | a + ((r at: #E) at: #%s)]", q, field)}
}

func (g *queryGen) next() op {
	switch g.draw() {
	// 40% indexed on salary: a range of at most qMaxRows at either end, or a point.
	case 0:
		k := 1 + g.rng.Intn(qMaxRows)
		sum := 0
		for i := g.w.emps - k; i < g.w.emps; i++ {
			sum += g.w.badge(i)
		}
		return selection("index_range", fmt.Sprintf("e!salary > %d", qSalary(g.w.emps-k-1)), "badge", k, sum)
	case 1:
		k := 1 + g.rng.Intn(qMaxRows)
		sum := 0
		for i := 0; i < k; i++ {
			sum += g.w.badge(i)
		}
		return selection("index_range", fmt.Sprintf("e!salary < %d", qSalary(k)), "badge", k, sum)
	case 2:
		i := g.rng.Intn(g.w.emps)
		return selection("index_point", fmt.Sprintf("e!salary = %d", qSalary(i)), "badge", 1, g.w.badge(i))
	case 3: // 20% the paper's join; the factor varies without changing who qualifies
		f := 0.0980 + 0.0001*float64(g.rng.Intn(64))
		q := fmt.Sprintf("{Emp: e, Mgr: m} where (e in World!acme!Employees) and "+
			"(d in World!acme!Departments) [(m in d!Managers) and (d!Name in e!Depts) and (e!Salary > %.4f * d!Budget)]", f)
		return op{kind: "join", query: q, rows: qJoinRows, want: strconv.Itoa(qJoinRows),
			source: fmt.Sprintf("(System query: '%s') size", q)}
	case 4: // 20% with no index to use: every member is examined
		i := g.rng.Intn(g.w.emps)
		return selection("scan", fmt.Sprintf("e!badge = %d", g.w.badge(i)), "salary", 1, qSalary(i))
	default: // 20% plain navigation
		switch g.rng.Intn(4) {
		case 0:
			return op{kind: "path", source: "World!acme!Departments!A12!Budget", want: "142000"}
		case 1:
			return op{kind: "path", source: "World!acme!Departments!A16!Budget", want: "256500"}
		case 2:
			i := g.rng.Intn(qFillers)
			return op{kind: "path", source: fmt.Sprintf("World!acme!Employees!F%d!Salary", i), want: strconv.Itoa(qFillerSalary(i))}
		default:
			i := g.rng.Intn(qFillers)
			return op{kind: "path", source: fmt.Sprintf("World!acme!Employees!F%d!Name!Last", i), want: fmt.Sprintf("'Filler%d'", i)}
		}
	}
}

// --- history_mixed ----------------------------------------------------------

// historyMixed uses object history deep instead of wide: a few hot objects
// whose elements carry hDepth versions before the first measured op, read
// at the present and at dialled past times beside the writes. Set-up builds
// the depth, so a run's cost does not depend on how many commits it makes.
type historyMixed struct {
	depth uint64 // versions per element after set-up
	t0    uint64 // time of the commit that created the hot objects
	t1    uint64 // time of the last set-up commit
}

const (
	hPerClient = 8
	hElems     = 8   // elements per hot object: v1..v8
	hDepth     = 256 // versions per element after set-up
)

func (*historyMixed) sample() string { return "World!hot1" }

// hPreload is the value set-up commit k (1-based) leaves in every element.
func hPreload(k uint64) int64 { return int64(k) * 10 }

func (w *historyMixed) load(s *gemstone.Session) error {
	hot := nClients * hPerClient
	var names, sets []string
	for i := 1; i <= hElems; i++ {
		names = append(names, fmt.Sprintf("'v%d'", i))
		sets = append(sets, fmt.Sprintf("o at: #v%d put: x", i))
	}
	sweep := strings.Join(sets, ". ")
	if err := runAll(s,
		fmt.Sprintf(`Object subclass: 'Hot' instVarNames: #(%s)`, strings.Join(names, " ")),
		fmt.Sprintf(`1 to: %d do: [:i | World at: ('hot' , i printString) asSymbol put: Hot new]`, hot),
	); err != nil {
		return err
	}
	// One Array of the hot objects so a set-up block can sweep them.
	if err := runAll(s, fmt.Sprintf(`| all | all := Array new: %d.
		1 to: %d do: [:i | all at: i put: (World at: ('hot' , i printString) asSymbol)].
		World at: #hotAll put: all`, hot, hot)); err != nil {
		return err
	}
	t, err := s.Commit()
	if err != nil {
		return err
	}
	w.t0 = uint64(t)
	for k := uint64(1); k <= w.depth; k++ {
		if err := runAll(s, fmt.Sprintf(`| x | x := %d. World!hotAll do: [:o | %s]`, hPreload(k), sweep)); err != nil {
			return err
		}
		if t, err = s.Commit(); err != nil {
			return err
		}
		if uint64(t) != w.t0+k {
			return fmt.Errorf("set-up commit %d landed at t%d, want t%d", k, t, w.t0+k)
		}
	}
	w.t1 = uint64(t)
	return nil
}

type hVersion struct {
	t uint64
	v int64
}

// historyGen owns hot objects [lo, hi]. written holds, per (object,
// element), the versions this client's acknowledged commits appended.
type historyGen struct {
	*deck
	w       *historyMixed
	lo, hi  int
	written map[[2]int][]hVersion
	lastT   uint64 // latest commit time this client knows of
}

func (w *historyMixed) client(seed int64, c, n int) generator {
	per := nClients * hPerClient / n
	return &historyGen{
		deck: newDeck(seed, c, 4, 6, 6), w: w,
		lo: c*per + 1, hi: (c + 1) * per,
		written: map[[2]int][]hVersion{}, lastT: w.t1,
	}
}

// at is the model: the value of (obj, elem) in the state at time t.
func (g *historyGen) at(obj, elem int, t uint64) int64 {
	vs := g.written[[2]int{obj, elem}]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].t <= t {
			return vs[i].v
		}
	}
	if t > g.w.t1 {
		t = g.w.t1
	}
	return hPreload(t - g.w.t0)
}

func (g *historyGen) next() op {
	obj := g.lo + g.rng.Intn(g.hi-g.lo+1)
	elem := 1 + g.rng.Intn(hElems)
	cur := g.at(obj, elem, g.lastT)
	switch g.draw() {
	case 0: // 25% update one element and commit
		delta := int64(1 + g.rng.Intn(9))
		return op{kind: "update", commit: true, key: [2]int{obj, elem}, value: cur + delta, elems: 1, want: strconv.FormatInt(cur+delta, 10),
			source: fmt.Sprintf("| o | o := World!hot%d. o at: #v%d put: (o at: #v%d) + %d. o at: #v%d", obj, elem, elem, delta, elem)}
	case 1: // 37.5% read the present
		return op{kind: "read_now", want: strconv.FormatInt(cur, 10),
			source: fmt.Sprintf("World!hot%d!v%d", obj, elem)}
	default: // 37.5% read a past state
		t := g.w.t0 + 1 + uint64(g.rng.Int63n(int64(g.lastT-g.w.t0)))
		return op{kind: "read_dialled", want: strconv.FormatInt(g.at(obj, elem, t), 10),
			dialObj: fmt.Sprintf("hot%d", obj), dialElem: fmt.Sprintf("v%d", elem), dialT: t,
			source: fmt.Sprintf("| r | System timeDial: %d. r := World!hot%d!v%d. System timeDialNow. r", t, obj, elem)}
	}
}

func (g *historyGen) ack(o op, t uint64) {
	g.written[o.key] = append(g.written[o.key], hVersion{t, o.value})
	g.lastT = t
}

func (w *historyMixed) verify(s *gemstone.Session, gens []generator) error {
	for _, gen := range gens {
		g := gen.(*historyGen)
		for k, vs := range g.written {
			last := vs[len(vs)-1]
			got, err := s.Run(fmt.Sprintf("World!hot%d!v%d", k[0], k[1]))
			if err != nil || got != strconv.FormatInt(last.v, 10) {
				return fmt.Errorf("hot%d!v%d after reopen: got %s (err %v), acknowledged %d", k[0], k[1], got, err, last.v)
			}
			// Every acknowledged version is still there, at its time.
			hist, err := s.Run(fmt.Sprintf("(World!hot%d changedTimesOf: #v%d) size", k[0], k[1]))
			if want := strconv.Itoa(int(w.depth) + len(vs)); err != nil || hist != want {
				return fmt.Errorf("hot%d!v%d after reopen: %s versions (err %v), want %s", k[0], k[1], hist, err, want)
			}
		}
	}
	return nil
}
