package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/gemstone"
	"repro/internal/executor"
	"repro/internal/wire"
)

// target is one rung of the request path: something that takes a block of
// OPAL source and a commit.
type target interface {
	execute(source string) (string, error)
	commit() (uint64, error)
	abort()
}

type wireTarget struct{ rs *wire.RemoteSession }

func (t wireTarget) execute(src string) (string, error) {
	res, _, err := t.rs.Execute(src)
	return res, err
}
func (t wireTarget) commit() (uint64, error) { return t.rs.Commit() }
func (t wireTarget) abort()                  { _ = t.rs.Abort() } // the op already counts as failed

type executorTarget struct {
	ex *executor.Executor
	id executor.SessionID
}

func (t executorTarget) execute(src string) (string, error) {
	res, _, err := t.ex.Execute(t.id, src)
	return res, err
}
func (t executorTarget) commit() (uint64, error) {
	ct, err := t.ex.Commit(t.id)
	return uint64(ct), err
}
func (t executorTarget) abort() { _ = t.ex.Abort(t.id) } // the op already counts as failed

type sessionTarget struct{ se *gemstone.Session }

func (t sessionTarget) execute(src string) (string, error) { return t.se.Run(src) }
func (t sessionTarget) commit() (uint64, error) {
	ct, err := t.se.Commit()
	return uint64(ct), err
}
func (t sessionTarget) abort() { t.se.Abort() }

// sample is one op as the client saw it.
type sample struct {
	op       op
	start    time.Time
	execDur  time.Duration // the Execute call
	totalDur time.Duration // Execute, and Commit if the op has one
	commitT  uint64        // acknowledged commit time, 0 if none
	err      error         // nil: right answer, and committed if asked to
}

// doOp runs one op against a target and checks its answer. A wrong answer
// is a failure like any other, and is never committed.
func doOp(t target, g generator, o op) sample {
	s := sample{op: o, start: time.Now()}
	got, err := t.execute(o.source)
	s.execDur = time.Since(s.start)
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s: execute: %w", o.kind, err)
	case got != o.want:
		s.err = fmt.Errorf("%s: got %s, want %s from %q", o.kind, got, o.want, clip(o.source))
	}
	if o.commit {
		if s.err != nil {
			t.abort()
		} else if s.commitT, err = t.commit(); err != nil {
			s.err = fmt.Errorf("%s: commit: %w", o.kind, err)
		} else {
			g.ack(o, s.commitT)
		}
	}
	s.totalDur = time.Since(s.start)
	return s
}

// closedLoop drives each target with its generator, every client waiting
// for its reply before sending the next op, for as long as more says, given
// how many ops the client has done. It returns each client's samples.
func closedLoop(targets []target, gens []generator, more func(done int) bool) [][]sample {
	out := make([][]sample, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; more(n); n++ {
				out[i] = append(out[i], doOp(targets[i], gens[i], gens[i].next()))
			}
		}(i)
	}
	wg.Wait()
	return out
}

func opsEach(ops int) func(int) bool { return func(done int) bool { return done < ops } }

func until(deadline time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(deadline) }
}

// mount is where on the request path a run's clients attach.
type mount int

const (
	overWire   mount = iota // wire.RemoteSession over a loopback connection
	atExecutor              // executor.Executor called directly
	atSession               // gemstone.Session called directly
)

// served is a loaded database with its clients attached and warmed up.
type served struct {
	*env
	targets []target
	gens    []generator
	local   *gemstone.Session // the atSession mount's session
	loadT   uint64            // last commit time of the load
	acked   []uint64          // commit times acknowledged so far, warm-up included
	failed  []error
}

// Unmeasured ops per client before the first measured one: firstOps with
// the other clients idle, then warmOps together (method caches, object
// cache, TCP).
const (
	firstOps = 24 // at least the longest deck, query_read's 20
	warmOps  = 64
)

// run is one invocation: what was asked for and what it holds open.
type run struct {
	config
	j    *janitor
	base string    // directory of the run's databases
	info io.Writer // what a reader, not the driver, wants to know
}

// setUp is everything before the first measured op: open, load, reopen,
// serve, dial, login, warm-up. seed is the generators'.
func (r *run) setUp(clients int, m mount, seed int64) (*served, error) {
	j := r.j
	w, err := newWorkload(r.workload, r.scale)
	if err != nil {
		return nil, err
	}
	e, err := openDB(j, r.base, w)
	if err != nil {
		return nil, err
	}
	sv := &served{env: e, loadT: uint64(e.db.Core().TxnManager().LastCommitted())}
	if err := sv.attach(clients, m); err != nil {
		_ = j.release(e)
		return nil, err
	}
	for c := range sv.targets {
		sv.gens = append(sv.gens, w.client(seed, c, clients))
	}
	// The clients first warm up one at a time: the engine builds an object's
	// element index on first use without a lock (README.md, the races), so
	// two sessions must not meet on an object neither has touched. firstOps
	// deals every kind of op at least once.
	for c := range sv.targets {
		sv.note(closedLoop(sv.targets[c:c+1], sv.gens[c:c+1], opsEach(max(int(firstOps*r.scale), 2))))
	}
	sv.note(closedLoop(sv.targets, sv.gens, opsEach(max(int(warmOps*r.scale), 4))))
	if len(sv.failed) > 0 {
		_ = j.release(e)
		return nil, fmt.Errorf("warm-up: %w", sv.failed[0])
	}
	return sv, nil
}

func (sv *served) attach(clients int, m mount) error {
	switch m {
	case overWire:
		sessions, err := sv.serve(clients)
		if err != nil {
			return err
		}
		for _, rs := range sessions {
			sv.targets = append(sv.targets, wireTarget{rs})
		}
	case atExecutor:
		sv.exec = executor.New(sv.db)
		for c := 0; c < clients; c++ {
			id, err := sv.exec.Login(gemstone.SystemUser, password)
			if err != nil {
				return err
			}
			sv.logouts = append(sv.logouts, func() { _ = sv.exec.Logout(id) }) // teardown reports a session left open
			sv.targets = append(sv.targets, executorTarget{sv.exec, id})
		}
	case atSession:
		se, err := sv.db.Login(gemstone.SystemUser, password)
		if err != nil {
			return err
		}
		sv.logouts = append(sv.logouts, se.Close)
		sv.local = se
		sv.targets = append(sv.targets, sessionTarget{se})
	}
	return nil
}

// note folds a loop's samples into the run's commit log and failure list.
func (sv *served) note(per [][]sample) {
	for _, ss := range per {
		for _, s := range ss {
			if s.err != nil {
				sv.failed = append(sv.failed, s.err)
			} else if s.commitT != 0 {
				sv.acked = append(sv.acked, s.commitT)
			}
		}
	}
}

// verifyDurable stops the server, reopens the database from disk alone and
// checks the paper's guarantees against the acknowledgement log: commit
// times strictly increasing and gap-free, and every acknowledged write
// readable.
func (sv *served) verifyDurable() error {
	if err := sv.shutdown(); err != nil {
		return err
	}
	sort.Slice(sv.acked, func(i, k int) bool { return sv.acked[i] < sv.acked[k] })
	for i, t := range sv.acked {
		if want := sv.loadT + 1 + uint64(i); t != want {
			return fmt.Errorf("commit times not gap-free: acknowledgement %d is t%d, want t%d", i, t, want)
		}
	}
	db, err := gemstone.Open(sv.dir, dbOptions())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	if got, want := uint64(db.Core().TxnManager().LastCommitted()), sv.loadT+uint64(len(sv.acked)); got != want {
		return fmt.Errorf("reopened database is at t%d, acknowledged up to t%d", got, want)
	}
	s, err := db.Login(gemstone.SystemUser, password)
	if err != nil {
		return err
	}
	defer s.Close()
	return sv.w.verify(s, sv.gens)
}

// usage is the process's user+system CPU time so far and its peak
// resident set in MiB.
func usage() (cpu time.Duration, peakRSS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one measured closed-loop interval.
type window struct {
	per     [][]sample
	elapsed time.Duration
	cpu     time.Duration
}

func (sv *served) measure(d time.Duration) window {
	cpu0, _ := usage()
	t0 := time.Now()
	per := closedLoop(sv.targets, sv.gens, until(t0.Add(d)))
	cpu1, _ := usage()
	w := window{per: per, elapsed: time.Since(t0), cpu: cpu1 - cpu0}
	sv.note(per)
	return w
}

func (w window) counts() (attempted, failed int) {
	for _, ss := range w.per {
		for _, s := range ss {
			attempted++
			if s.err != nil {
				failed++
			}
		}
	}
	return
}

// latencies returns the sorted latencies of the ops that succeeded.
func (w window) latencies() []time.Duration {
	var ls []time.Duration
	for _, ss := range w.per {
		for _, s := range ss {
			if s.err == nil {
				ls = append(ls, s.totalDur)
			}
		}
	}
	sort.Slice(ls, func(i, k int) bool { return ls[i] < ls[k] })
	return ls
}

// quantile reads the q-quantile of an ascending slice.
func quantile(ls []time.Duration, q float64) time.Duration {
	if len(ls) == 0 {
		return 0
	}
	return ls[int(q*float64(len(ls)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// rounds is how many times an untraced run sets up, measures and verifies,
// each time on a database of its own; every metric is the median over them.
const rounds = 5

// untraced is the end-to-end measurement: tracing off, nClients closed-loop
// clients over the wire. The sandbox's speed wanders over seconds, so the
// measured time is cut into equal rounds and each metric reported is the
// median of the rounds' values: a slow patch shorter than half the run does
// not move it. Every round has a freshly loaded database: the store only
// appends, so this is what bounds the disk a run needs (a round's writes,
// not the run's), and it starts every round in the same state, where one
// long window drifts as the object cache fills and histories deepen.
func (r *run) untraced() (result, error) {
	j, name, info := r.j, r.workload, r.info
	var attempted, failed, beyond int
	var loaded, peak int64
	var opsPerS, p50, p99, cpuPerOp, setupS []float64
	var failures []error
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		sv, err := r.setUp(r.clients, overWire, r.seed*rounds+int64(k))
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loaded = sv.diskBytes()

		w := sv.measure(r.duration() / rounds)
		a, f := w.counts()
		attempted, failed = attempted+a, failed+f
		failures = append(failures, sv.failed...)
		if ls := w.latencies(); len(ls) > 0 {
			beyond += len(ls) / 100
			opsPerS = append(opsPerS, float64(len(ls))/w.elapsed.Seconds())
			p50 = append(p50, ms(quantile(ls, 0.50)))
			p99 = append(p99, ms(quantile(ls, 0.99)))
			cpuPerOp = append(cpuPerOp, ms(w.cpu)/float64(len(ls)))
		}
		peak = max(peak, sv.diskBytes())

		err = sv.verifyDurable()
		if rerr := j.release(sv.env); err == nil {
			err = rerr
		}
		if err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(info, "%s: seed %d, %d closed-loop clients over the wire for %v in %d rounds, each on its own database; flush policy: 1 replica, the store syncs once per commit group; database %.1f MB on disk when loaded, %.1f MB at most after a round, track cache %.1f MB\n",
		name, r.seed, r.clients, r.duration(), rounds, float64(loaded)/1e6, float64(peak)/1e6, float64(cacheTracks*trackSize)/1e6)
	fmt.Fprintf(info, "%s: %d ops, %d failed; about %d samples beyond each round's p99; set-up times %.3v s\n",
		name, attempted, failed, beyond/rounds, setupS)
	fmt.Fprintf(info, "%s: per round: op/s %.0f, p50 ms %.3f, p99 ms %.3f, cpu ms/op %.3f\n", name, opsPerS, p50, p99, cpuPerOp)
	for i, err := range failures {
		if i == 5 {
			break
		}
		fmt.Fprintf(info, "%s: failed op: %v\n", name, err)
	}
	metrics, err := report(endToEnd, map[string]float64{
		"ops_per_s":     median(opsPerS),
		"p50_ms":        median(p50),
		"p99_ms":        median(p99),
		"cpu_ms_per_op": median(cpuPerOp),
		"setup_s":       median(setupS),
	})
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
