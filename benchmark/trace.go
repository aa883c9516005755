package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/obs"
	"repro/internal/oop"
	"repro/internal/store"
)

// The traced run measures layers from outside the engine. One seeded op
// sequence is replayed by one client down a ladder of entry points, each
// rung on its own freshly loaded database:
//
//	wire      wire.RemoteSession.Execute / Commit
//	executor  executor.Executor.Execute / Commit
//	session   gemstone.Session.Execute / core.Session.Commit
//	parts     calculus.Parse, algebra.Optimize, Plan.Exec, core FetchAt,
//	          store.EncodeObject, given the same inputs
//
// Every call is a span; a rung's self time is its mean minus the mean of
// the rung below. Op i runs on every rung before op i+1 runs on any, so the
// rungs share whatever the machine is doing at the time: replayed one
// after the other, their means drift apart by more than the wire costs.
// One client and a fixed op count make the engine's counters repeat exactly
// from run to run. The counts that need concurrency to mean anything (group
// sizes, queue waits) come from a short two-client window before the ladder.

// span is one timed call into a layer. Spans of one op share its id.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"` // the span one rung up that stands for its caller
	Start  int64  `json:"start_ns"`         // since the trace began
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // >1: a batch of identical calls, timed together
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) add(name, parent string, op int, start time.Time, d time.Duration, calls int) {
	at := start.Sub(tr.t0)
	tr.spans = append(tr.spans, span{Name: name, Op: op, Parent: parent, Start: int64(at), End: int64(at + d), Calls: calls})
}

// ladderOpsPerSecond sizes the replayed sequence from --seconds, so that a
// traced run takes about as long as an untraced one. They are constants so
// that counts repeat.
var ladderOpsPerSecond = map[string]float64{
	"vm_compute": 40, "oltp_commit": 150, "query_read": 300, "history_mixed": 200,
}

// rung is one mount point of the ladder with the names of its two spans;
// a rung's spans have the spans of the rung above as parents.
type rung struct {
	m            mount
	exec, commit string
	traced       bool

	sv      *served
	samples []sample
	before  *obs.Snapshot
	after   *obs.Snapshot
}

func newLadder() []*rung {
	return []*rung{
		{m: overWire, exec: "wire.execute", commit: "wire.commit", traced: true},
		{m: atExecutor, exec: "executor.execute", commit: "executor.commit", traced: true},
		{m: atSession, exec: "opal.execute", commit: "core.commit", traced: true},
		// The wire rung once more with no span kept: what recording costs.
		{m: overWire},
	}
}

// mean is the mean time of an op on the rung, and of its Execute alone.
func (r *rung) mean() (op, exec time.Duration) {
	for _, s := range r.samples {
		op += s.totalDur
		exec += s.execDur
	}
	n := time.Duration(len(r.samples))
	return op / n, exec / n
}

// climb replays n ops of the seeded sequence on every rung, op by op.
func (r *run) climb(n int, tr *tracer) ([]*rung, error) {
	rungs := newLadder()
	for _, rg := range rungs {
		sv, err := r.setUp(1, rg.m, r.seed)
		if err != nil {
			return nil, err
		}
		rg.sv, rg.before = sv, sv.db.Stats()
	}
	for i := 0; i < n; i++ {
		for k := range rungs {
			at := (i + k) % len(rungs) // no rung always runs first, or always after the same other
			rg := rungs[at]
			g := rg.sv.gens[0]
			s := doOp(rg.sv.targets[0], g, g.next())
			if s.err != nil {
				return nil, fmt.Errorf("op %d at %s: %w", i, rg.exec, s.err)
			}
			rg.samples = append(rg.samples, s)
			if !rg.traced {
				continue
			}
			var callerExec, callerCommit string
			if at > 0 {
				callerExec, callerCommit = rungs[at-1].exec, rungs[at-1].commit
			}
			tr.add(rg.exec, callerExec, i, s.start, s.execDur, 0)
			if s.op.commit {
				tr.add(rg.commit, callerCommit, i, s.start.Add(s.execDur), s.totalDur-s.execDur, 0)
			}
		}
	}
	for _, rg := range rungs {
		rg.after = rg.sv.db.Stats()
	}
	return rungs, nil
}

const (
	fetchBatch  = 64 // FetchAt is tens of ns: time a batch, report one call
	encodeBatch = 32
)

// parts is the lowest rung: for each replayed op, the component calls
// that take the same inputs, on the session the session rung used.
type parts struct {
	parse, optimize, exec time.Duration // summed over ops
	fetchAt               time.Duration // summed over dialled reads, per call
	dialled               int
	encode                time.Duration // one EncodeObject of the sample object
	mallocs               float64       // heap objects per op of the session rung
}

func (r *rung) parts(tr *tracer) (parts, error) {
	var p parts
	se := r.sv.local
	cs := se.Core()
	for i, s := range r.samples {
		if o := s.op; o.query != "" {
			t0 := time.Now()
			q, err := calculus.Parse(o.query)
			if err != nil {
				return p, err
			}
			t1 := time.Now()
			plan, err := algebra.Optimize(q, cs)
			if err != nil {
				return p, err
			}
			t2 := time.Now()
			rows, _, err := plan.Exec(cs)
			t3 := time.Now()
			if err != nil || len(rows) != o.rows {
				return p, fmt.Errorf("parts: %d rows (err %v), want %d from %q", len(rows), err, o.rows, o.query)
			}
			tr.add("calculus.parse", r.exec, i, t0, t1.Sub(t0), 0)
			tr.add("algebra.optimize", r.exec, i, t1, t2.Sub(t1), 0)
			tr.add("algebra.exec", r.exec, i, t2, t3.Sub(t2), 0)
			p.parse += t1.Sub(t0)
			p.optimize += t2.Sub(t1)
			p.exec += t3.Sub(t2)
		} else if o.dialObj != "" {
			obj, err := se.Path("World!"+o.dialObj, nil)
			if err != nil {
				return p, err
			}
			elem, at := cs.Symbol(o.dialElem), oop.Time(o.dialT)
			var v oop.OOP
			t0 := time.Now()
			for k := 0; k < fetchBatch; k++ {
				if v, _, err = cs.FetchAt(obj, elem, at); err != nil {
					return p, err
				}
			}
			d := time.Since(t0)
			if got := strconv.FormatInt(v.Int(), 10); got != o.want {
				return p, fmt.Errorf("parts: FetchAt %s!%s@%d = %s, want %s", o.dialObj, o.dialElem, o.dialT, got, o.want)
			}
			tr.add("core.fetch_at", r.exec, i, t0, d, fetchBatch)
			p.fetchAt += d / fetchBatch
			p.dialled++
		}
	}

	// The record a commit of the sample object would box, as it stands now.
	obj, err := se.Path(r.sv.w.sample(), nil)
	if err != nil {
		return p, err
	}
	ob, err := cs.Object(obj)
	if err != nil {
		return p, err
	}
	var buf []byte
	t0 := time.Now()
	for k := 0; k < encodeBatch; k++ {
		buf = store.EncodeObject(buf[:0], ob)
	}
	d := time.Since(t0)
	tr.add("store.encode", r.commit, len(r.samples), t0, d, encodeBatch)
	p.encode = d / encodeBatch

	// Allocations need the session rung alone between two ReadMemStats, so
	// the sequence runs on here for a quarter as many ops again.
	more := max(len(r.samples)/4, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := closedLoop(r.sv.targets, r.sv.gens, opsEach(more))
	runtime.ReadMemStats(&m1)
	if r.sv.note(per); len(r.sv.failed) > 0 {
		return p, r.sv.failed[0]
	}
	p.mallocs = float64(m1.Mallocs-m0.Mallocs) / float64(more)
	return p, nil
}

// delta reads counter and histogram movement between two snapshots.
type delta struct{ a, b *obs.Snapshot }

func (d delta) count(name string) float64 { return float64(d.b.Counter(name) - d.a.Counter(name)) }

// mean is the mean of the values a histogram observed between the snapshots.
func (d delta) mean(name string) float64 {
	ha, _ := d.a.Histogram(name)
	hb, _ := d.b.Histogram(name)
	return ratio(float64(hb.Sum-ha.Sum), float64(hb.Count-ha.Count))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces every per-layer metric. End-to-end numbers are never
// taken from it.
func (r *run) traced() (result, error) {
	j, name, seed, d, info := r.j, r.workload, r.seed, r.duration(), r.info
	// The concurrent window: one round of the untraced run.
	sv, err := r.setUp(r.clients, overWire, r.seed)
	if err != nil {
		return result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c := delta{a: sv.db.Stats()}
	w := sv.measure(d / rounds)
	c.b = sv.db.Stats()
	runtime.ReadMemStats(&m1)
	dbBytes := sv.diskBytes()
	_, rss := usage()
	attempted, failed := w.counts()
	ops := float64(attempted - failed)
	var elems float64
	for _, ss := range w.per {
		for _, s := range ss {
			if s.err == nil {
				elems += float64(s.op.elems)
			}
		}
	}
	if err := j.release(sv.env); err != nil {
		return result{}, err
	}

	// The ladder.
	n := max(int(ladderOpsPerSecond[name]*d.Seconds()*r.scale), 8)
	tr := &tracer{t0: time.Now()}
	rungs, err := r.climb(n, tr)
	if err != nil {
		return result{}, err
	}
	attempted += len(rungs) * n
	pt, err := rungs[2].parts(tr)
	if err != nil {
		return result{}, err
	}
	for _, rg := range rungs {
		if err := j.release(rg.sv.env); err != nil {
			return result{}, err
		}
	}
	if err := writeTrace(r.outDir, name, seed, n, tr); err != nil {
		return result{}, err
	}

	wireOp, _ := rungs[0].mean()
	execOp, _ := rungs[1].mean()
	sessOp, sessExec := rungs[2].mean()
	bareOp, _ := rungs[3].mean()
	// Self times are non-negative and sum to the wire rung's mean: what the
	// executor cannot be shown to cost is the wire's.
	executorSelf := max(execOp-sessOp, 0)
	wireSelf := wireOp - sessOp - executorSelf
	l := delta{rungs[0].before, rungs[0].after} // the wire rung's counters: these repeat exactly
	var rows float64
	for _, s := range rungs[0].samples {
		rows += float64(s.op.rows)
	}
	perOp := func(x float64) float64 { return x / float64(n) }
	commits := c.count("txn.commits")
	vals := map[string]float64{
		"wire.self_ms":          ms(wireSelf),
		"wire.bytes_in_per_op":  ratio(c.count("wire.bytes.in"), ops),
		"wire.bytes_out_per_op": ratio(c.count("wire.bytes.out"), ops),
		"wire.frames_per_op":    ratio(c.count("wire.frames.in"), ops),
		"wire.queue_wait_ms":    c.mean("wire.queue.wait") / 1e6,
		"wire.coalesced_mean":   c.mean("wire.write.coalesced"),
		"wire.shed_share": ratio(c.count("wire.shed.overload")+c.count("wire.shed.shutdown")+c.count("wire.deadline.exceeded"),
			c.count("wire.frames.in")),
		"executor.self_ms":               ms(executorSelf),
		"executor.execute_ns_mean":       c.mean("executor.execute.ns"),
		"opal.execute_ms":                ms(sessExec),
		"opal.allocs_per_op":             pt.mallocs,
		"calculus.parse_ms":              perOp(ms(pt.parse)),
		"algebra.optimize_ms":            perOp(ms(pt.optimize)),
		"algebra.exec_ms":                perOp(ms(pt.exec)),
		"algebra.members_per_row":        ratio(l.count("query.cursor.members"), rows),
		"algebra.cursor_opens":           perOp(l.count("query.cursor.opens")),
		"algebra.member_counts":          perOp(l.count("query.member.counts")),
		"directory.lookups_per_op":       perOp(l.count("directory.index.lookups")),
		"directory.scans_per_op":         perOp(l.count("directory.scans")),
		"core.commit_ms":                 ms(sessOp - sessExec),
		"core.fetch_at_ms":               ratio(ms(pt.fetchAt), float64(pt.dialled)),
		"txn.group_size_mean":            c.mean("txn.group.size"),
		"txn.fastpath_share":             ratio(c.count("txn.fastpath.commits"), commits),
		"txn.validate_ns_mean":           c.mean("txn.validate.ns"),
		"txn.gather_spins_mean":          c.mean("txn.gather.spins"),
		"txn.abort_share":                ratio(c.count("txn.aborts"), commits+c.count("txn.aborts")),
		"store.apply_ns_mean":            c.mean("store.apply.ns"),
		"store.syncs_per_commit":         ratio(c.count("store.syncs"), commits),
		"store.track_writes_per_commit":  ratio(c.count("store.track.writes"), commits),
		"store.bytes_written_per_commit": ratio(c.count("store.track.bytes.written"), commits),
		"store.write_amp":                ratio(c.count("store.track.bytes.written"), 16*elems), // a binding is a time and a value, 8 bytes each
		"store.track_reads_per_op":       ratio(c.count("store.track.reads"), ops),
		"store.cache_hit_share":          ratio(c.count("store.cache.hits"), c.count("store.cache.hits")+c.count("store.track.reads")),
		"store.slab_grows":               c.count("store.slab.grows"),
		"store.encode_ms":                ms(pt.encode),
		"store.db_bytes":                 float64(dbBytes),
		"process.alloc_kb_per_op":        ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, ops),
		"process.allocs_per_op":          ratio(float64(m1.Mallocs-m0.Mallocs), ops),
		"process.gc_pause_ms_total":      float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"process.rss_mb_peak":            rss,
		"trace.overhead_share":           ratio(float64(wireOp-bareOp), float64(bareOp)),
		"count.txn_commits":              l.count("txn.commits"),
		"count.store_applies":            l.count("store.applies"),
		"count.store_track_writes":       l.count("store.track.writes"),
		"count.store_bytes_written":      l.count("store.track.bytes.written"),
		"count.query_cursor_members":     l.count("query.cursor.members"),
		"count.directory_lookups":        l.count("directory.index.lookups"),
		"count.wire_frames":              l.count("wire.frames.in"),
	}
	metrics, err := report(perLayer, vals)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(info, "%s: traced, seed %d: %.0f ops in a %v window of %d clients, then %d ops replayed on each of %d rungs\n",
		name, seed, ops, d/rounds, r.clients, n, len(rungs))
	fmt.Fprintf(info, "%s: rung means per op: wire %.4f ms, executor %.4f ms, session %.4f ms (execute %.4f + commit %.4f), calculus+algebra parts %.4f ms\n",
		name, ms(wireOp), ms(execOp), ms(sessOp), ms(sessExec), ms(sessOp-sessExec), perOp(ms(pt.parse+pt.optimize+pt.exec)))
	fmt.Fprintf(info, "%s: share of the wire rung: opal.execute %.2f, core.commit %.2f, calculus+algebra %.2f\n",
		name, ratio(float64(sessExec), float64(wireOp)), ratio(float64(sessOp-sessExec), float64(wireOp)),
		ratio(perOp(float64(pt.parse+pt.optimize+pt.exec)), float64(wireOp)))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func writeTrace(dir, name string, seed int64, n int, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Ops      int    `json:"ops"`
		Spans    []span `json:"spans"`
	}{name, seed, n, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".trace.json"), b, 0o644)
}
