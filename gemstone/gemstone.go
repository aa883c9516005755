// Package gemstone is the public API of the GemStone reproduction: an
// object database with a Smalltalk-derived data language (OPAL), per-element
// transaction-time history, path expressions, a declarative set calculus,
// optimistic multi-user transactions and history-aware indexes — the system
// described in Copeland & Maier, "Making Smalltalk a Database System"
// (SIGMOD 1984).
//
// A database is opened (or bootstrapped) with Open; users connect with
// Login, obtaining a Session that executes blocks of OPAL source, evaluates
// path expressions, runs calculus queries, and controls transactions and
// the time dial:
//
//	db, _ := gemstone.Open("mydb", gemstone.Options{})
//	defer db.Close()
//	s, _ := db.Login(gemstone.SystemUser, "swordfish")
//	s.Run(`Object subclass: 'Employee' instVarNames: #('name' 'salary')`)
//	s.Run(`| e | e := Employee new. e at: #name put: 'Ellen'. World at: #ellen put: e`)
//	s.Commit()
//	out, _ := s.Run("World!ellen!name") // "'Ellen'"
package gemstone

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/auth"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oop"
	"repro/internal/opal"
	"repro/internal/store"
)

// SystemUser is the bootstrap administrator account.
const SystemUser = auth.SystemUser

// Value is an object reference (an OOP): the unit of entity identity.
type Value = oop.OOP

// Time is a transaction time.
type Time = oop.Time

// Nil is the nil object.
var Nil = oop.Nil

// Now is the time-dial setting for the current state.
var Now = oop.TimeNow

// Options configures a database.
type Options struct {
	TrackSize      int    // bytes per track (default 8192)
	Replicas       int    // replica files for each track (default 1)
	CacheTracks    int    // in-memory track cache (default 256)
	SystemPassword string // SystemUser password (default "swordfish")

	// WriteQuorum is the minimum number of replica arms a commit must
	// reach durably; arms that fail are degraded and skipped (default 1).
	WriteQuorum int

	// OpenReplica, when non-nil, supplies each replica arm's device —
	// the fault-injection hook (see internal/iofault).
	OpenReplica store.OpenReplicaFunc

	// FailPoint, when non-nil, is consulted at each named step of the
	// commit protocol; returning an error simulates a crash at that step
	// (see store.Options). For recovery testing only.
	FailPoint func(step string) error
}

// DB is an open database.
type DB struct {
	core *core.DB
	opts Options
}

// Open opens or bootstraps a database in dir. On first open it installs the
// OPAL kernel image (collection protocol, System and Transcript).
func Open(dir string, opts Options) (*DB, error) {
	if opts.SystemPassword == "" {
		opts.SystemPassword = "swordfish"
	}
	cdb, err := core.Open(dir, core.Options{
		Store: store.Options{
			TrackSize:   opts.TrackSize,
			Replicas:    opts.Replicas,
			CacheTracks: opts.CacheTracks,
			WriteQuorum: opts.WriteQuorum,
			OpenReplica: opts.OpenReplica,
			FailPoint:   opts.FailPoint,
		},
		SystemPassword: opts.SystemPassword,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{core: cdb, opts: opts}
	// Ensure the OPAL image exists (needs a system session once).
	sys, err := cdb.NewSession(auth.SystemUser, opts.SystemPassword)
	if err != nil {
		cdb.Close()
		return nil, err
	}
	if _, err := opal.NewInterp(sys); err != nil {
		sys.Close()
		cdb.Close()
		return nil, fmt.Errorf("gemstone: installing OPAL image: %w", err)
	}
	// Retire the bootstrap session: left open it would pin the validation
	// log forever.
	sys.Close()
	return db, nil
}

// Close releases the database.
func (db *DB) Close() error { return db.core.Close() }

// Core exposes the underlying Object Manager for advanced use (experiment
// harnesses, statistics).
func (db *DB) Core() *core.DB { return db.core }

// Stats returns a point-in-time snapshot of every engine metric: commit and
// abort counters, group-commit sizes, track I/O, index-vs-scan counts,
// latency histograms and the slow-query log. The same snapshot backs the
// OpStats wire operation and the cmd/gemstone -statsevery dump.
func (db *DB) Stats() *obs.Snapshot { return db.core.Obs().Snapshot() }

// Health reports the state of every replica arm: healthy, suspect (media
// damage seen; still written and scrub-promotable) or degraded (missed
// writes; excluded until rebuilt). The same report backs the OpHealth
// wire operation and cmd/opal's /health command.
func (db *DB) Health() []store.ArmHealth { return db.core.Store().Health() }

// Scrub runs one online scrub pass over every allocated track, repairing
// damaged copies from a valid arm. Commits proceed concurrently with the
// sweep.
func (db *DB) Scrub() store.ScrubResult { return db.core.Store().Scrub() }

// Rebuild reconstructs a degraded replica arm bit-for-bit from the
// surviving arms and reinstates it to healthy.
func (db *DB) Rebuild(replica int) error { return db.core.Store().Rebuild(replica) }

// CreateUser adds a user account (administrators only); convenience that
// logs in as SystemUser.
func (db *DB) CreateUser(name, password string) error {
	s, err := db.core.NewSession(auth.SystemUser, db.opts.SystemPassword)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.CreateUser(name, password)
}

// Session is one user connection: an OPAL interpreter over a private object
// space with optimistic transaction semantics and a time dial.
//
// A Session is not safe for concurrent use by multiple goroutines — it
// models one user's workspace, exactly as the paper's per-user Executor
// session does. Concurrency comes from opening multiple sessions against
// the same DB; the Transaction Manager serializes their commits.
type Session struct {
	s  *core.Session
	in *opal.Interp
}

// Login authenticates a user and starts a session.
func (db *DB) Login(user, password string) (*Session, error) {
	s, err := db.core.NewSession(user, password)
	if err != nil {
		return nil, err
	}
	in, err := opal.NewInterp(s)
	if err != nil {
		// Left open, the half-built session would pin the validation log
		// and camp on the published tip forever.
		s.Close()
		return nil, err
	}
	return &Session{s: s, in: in}, nil
}

// Result is the outcome of executing a block of OPAL source.
type Result struct {
	Value   Value  // the value of the last expression
	Printed string // its printString
	Output  string // Transcript output produced during execution
}

// Execute compiles and runs a block of OPAL source. The result Value, and
// every object the block made but did not store into persistent state,
// stay valid for the life of the session: a Go host may keep any Value it
// was handed. (The network executor, whose clients see only text, drops
// them at the end of each request instead.)
func (se *Session) Execute(source string) (Result, error) {
	v, err := se.in.Execute(source)
	out := se.in.TakeOutput()
	if err != nil {
		return Result{Output: out}, err
	}
	p, perr := se.in.PrintString(v)
	if perr != nil {
		p = v.String()
	}
	return Result{Value: v, Printed: p, Output: out}, nil
}

// Run executes OPAL source and returns the result's printString.
func (se *Session) Run(source string) (string, error) {
	r, err := se.Execute(source)
	if err != nil {
		return "", err
	}
	return r.Printed, nil
}

// MustRun is Run for program setup code; it panics on error.
func (se *Session) MustRun(source string) string {
	out, err := se.Run(source)
	if err != nil {
		panic(err)
	}
	return out
}

// Row is one query result row: target label -> value.
type Row map[string]Value

// Query parses, optimizes and executes a set-calculus query.
func (se *Session) Query(src string) ([]Row, error) {
	tuples, _, err := algebra.Run(se.s, src)
	if err != nil {
		return nil, err
	}
	return rowsOf(tuples), nil
}

// QueryNaive executes a query with the unoptimized calculus-order plan
// (for comparisons).
func (se *Session) QueryNaive(src string) ([]Row, error) {
	tuples, _, err := algebra.RunNaive(se.s, src)
	if err != nil {
		return nil, err
	}
	return rowsOf(tuples), nil
}

func rowsOf(tuples []algebra.Tuple) []Row {
	rows := make([]Row, len(tuples))
	for i, t := range tuples {
		r := make(Row, len(t.Labels))
		for j, l := range t.Labels {
			r[l] = t.Values[j]
		}
		rows[i] = r
	}
	return rows
}

// Explain returns the optimized query plan as text.
func (se *Session) Explain(src string) (string, error) {
	q, err := calculus.Parse(src)
	if err != nil {
		return "", err
	}
	p, err := algebra.Optimize(q, se.s)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Path evaluates a path expression in OPAL's path syntax (X!a!b@T!c), or a
// bare variable, rooted at a global or at a binding in env (may be nil);
// env's names shadow globals.
func (se *Session) Path(expr string, env map[string]Value) (Value, error) {
	return se.in.Path(expr, env, nil)
}

// PathAssign assigns value at the end of a path expression in OPAL's path
// syntax. Like an OPAL path assignment it honours element constraints: a
// value the element's constraint rejects is not stored.
func (se *Session) PathAssign(expr string, value Value, env map[string]Value) error {
	_, err := se.in.Path(expr, env, &value)
	return err
}

// Print renders any value as OPAL's printString.
func (se *Session) Print(v Value) (string, error) { return se.in.PrintString(v) }

// SetContext bounds the session's next request by ctx: OPAL execution,
// query scans and CommitCtx abandon work once ctx is cancelled, returning
// an error wrapping the cause. Pass nil to clear. Set it between requests
// — a Session is single-goroutine and this is not a concurrent interrupt.
func (se *Session) SetContext(ctx context.Context) { se.s.SetContext(ctx) }

// Commit validates and durably applies the transaction, returning the
// assigned transaction time. On conflict the workspace has been discarded
// and a fresh transaction begun.
func (se *Session) Commit() (Time, error) { return se.s.Commit() }

// CommitCtx is Commit bounded by a request context: if ctx is already
// cancelled before the commit reaches admission, the transaction aborts
// (no transaction time consumed) and the cancellation error is returned.
// Once admitted the commit always runs to durability.
func (se *Session) CommitCtx(ctx context.Context) (Time, error) { return se.s.CommitCtx(ctx) }

// Abort discards pending changes.
func (se *Session) Abort() { se.s.Abort() }

// Close discards pending changes and retires the session's transaction
// for good; the session must not be used afterwards.
func (se *Session) Close() { se.s.Close() }

// SetTimeDial points reads at a past database state; pass Now to return to
// the present.
func (se *Session) SetTimeDial(t Time) error { return se.s.SetTimeDial(t) }

// SafeTime is the most recent state no running transaction can change.
func (se *Session) SafeTime() Time { return se.s.SafeTime() }

// CreateIndex builds a history-aware directory on a set (named by a path
// expression) keyed by the element-name path.
func (se *Session) CreateIndex(setExpr string, keyPath []string) error {
	set, err := se.Path(setExpr, nil)
	if err != nil {
		return err
	}
	return se.s.CreateIndex(set, keyPath)
}

// Core exposes the underlying session.
func (se *Session) Core() *core.Session { return se.s }

// Interp exposes the OPAL interpreter.
func (se *Session) Interp() *opal.Interp { return se.in }

// HistoryEntry is one committed association of an element's history.
type HistoryEntry = core.HistoryEntry

// History returns the committed (time, value) associations of an object's
// element, oldest first — the paper's per-element history as data. It
// stops at the time the session reads: the transaction's snapshot, or the
// dialed state. Pending writes and later commits are not in it.
func (se *Session) History(obj Value, element string) ([]HistoryEntry, error) {
	return se.s.History(obj, se.s.Symbol(element))
}
