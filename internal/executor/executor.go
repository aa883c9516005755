// Package executor implements the GemStone Executor (paper §6): it is
// "responsible for controlling sessions in the GemStone system on behalf of
// users on host machines", handling login, receiving blocks of OPAL source,
// and returning results and error messages. It "maintains a Compiler and
// Interpreter for each active user".
package executor

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/gemstone"
	"repro/internal/obs"
	"repro/internal/oop"
	"repro/internal/store"
)

// SessionID names one remote session. IDs are drawn from crypto/rand: a
// session ID doubles as the bearer credential on the wire, so it must not
// be guessable the way a sequential counter is.
type SessionID uint64

// ErrNoSession reports an unknown or closed session id.
var ErrNoSession = errors.New("executor: no such session")

// DefaultSlowQueryNS is the execute-latency threshold beyond which the
// OPAL source is recorded in the slow-query log.
const DefaultSlowQueryNS = 100 * 1000 * 1000 // 100ms

// Executor multiplexes user sessions over one database.
type Executor struct {
	db *gemstone.DB

	mu       sync.Mutex // guards sessions
	sessions map[SessionID]*remote

	slowNS atomic.Uint64 // slow-query threshold in nanoseconds
	met    execMetrics
}

// remote serializes one session's commands. The token channel is a
// capacity-1 semaphore rather than a mutex so a waiter can give up when
// its request deadline expires: a request queued behind a slow command on
// the same session is shed before it consumes the session, not after.
type remote struct {
	sem chan struct{} // cap 1: holding the token = running this session's command
	se  *gemstone.Session
}

func newRemote(se *gemstone.Session) *remote {
	return &remote{sem: make(chan struct{}, 1), se: se}
}

// acquire takes the session's command token; a nil ctx waits forever.
func (r *remote) acquire(ctx context.Context) error {
	if ctx == nil {
		r.sem <- struct{}{}
		return nil
	}
	select {
	case r.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("executor: waiting for session: %w", ctx.Err())
	}
}

func (r *remote) release() { <-r.sem }

// execMetrics instruments the session frontier: how many users are live,
// how fast their blocks run, and which sources ran slow.
type execMetrics struct {
	logins    *obs.Counter
	logouts   *obs.Counter
	sessions  *obs.Gauge
	executeNS *obs.Histogram
	slow      *obs.SlowLog
}

// New creates an Executor over an open database, registering its
// instruments with the database's metrics registry.
func New(db *gemstone.DB) *Executor {
	reg := db.Core().Obs()
	e := &Executor{
		db:       db,
		sessions: make(map[SessionID]*remote),
		met: execMetrics{
			logins:    reg.Counter("executor.logins"),
			logouts:   reg.Counter("executor.logouts"),
			sessions:  reg.Gauge("executor.sessions"),
			executeNS: reg.Histogram("executor.execute.ns", obs.LatencyBounds),
			slow:      reg.SlowLog(),
		},
	}
	e.slowNS.Store(DefaultSlowQueryNS)
	return e
}

// Obs returns the metrics registry of the underlying database.
func (e *Executor) Obs() *obs.Registry { return e.db.Core().Obs() }

// SetSlowQueryThreshold changes the slow-query threshold (nanoseconds).
func (e *Executor) SetSlowQueryThreshold(ns uint64) { e.slowNS.Store(ns) }

// Health reports the replica-arm health of the underlying database (the
// OpHealth wire operation).
func (e *Executor) Health() []store.ArmHealth { return e.db.Health() }

// newSessionIDLocked draws an unguessable, unused session ID. Zero is
// reserved as "no session" on the wire. Caller holds e.mu.
func (e *Executor) newSessionIDLocked() (SessionID, error) {
	var buf [8]byte
	for tries := 0; tries < 32; tries++ {
		if _, err := crand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("executor: session id: %w", err)
		}
		id := SessionID(binary.LittleEndian.Uint64(buf[:]))
		if id == 0 {
			continue
		}
		if _, taken := e.sessions[id]; !taken {
			return id, nil
		}
	}
	return 0, errors.New("executor: session id space exhausted")
}

// Login authenticates a user and opens a session.
func (e *Executor) Login(user, password string) (SessionID, error) {
	se, err := e.db.Login(user, password)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id, err := e.newSessionIDLocked()
	if err != nil {
		return 0, err
	}
	e.sessions[id] = newRemote(se)
	e.met.logins.Inc()
	e.met.sessions.Set(int64(len(e.sessions)))
	return id, nil
}

func (e *Executor) session(id SessionID) (*remote, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	return r, nil
}

// Execute runs a block of OPAL source in the session, returning the
// printString of the result and any Transcript output.
func (e *Executor) Execute(id SessionID, source string) (result, output string, err error) {
	return e.ExecuteCtx(nil, id, source)
}

// ExecuteCtx is Execute bounded by a request context: cancellation is
// honored while waiting for the session's command token (the request is
// shed without touching the session) and polled during execution by the
// interpreter and scan cursors. An execution interrupted mid-block rolls
// the session's transaction back — a half-applied OPAL block must not
// survive into a later commit — and the session stays usable. A nil ctx
// never cancels.
//
// The caller gets text only, so no OOP outlives the request: once the
// answer is printed, whether the block succeeded or failed, the session
// drops every transient its workspace does not reach.
func (e *Executor) ExecuteCtx(ctx context.Context, id SessionID, source string) (result, output string, err error) {
	r, err := e.session(id)
	if err != nil {
		return "", "", err
	}
	if err := r.acquire(ctx); err != nil {
		return "", "", err
	}
	defer r.release()
	if r.se == nil {
		return "", "", fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	defer r.se.Core().DropTransients()
	r.se.SetContext(ctx)
	defer r.se.SetContext(nil)
	sw := e.met.executeNS.Start()
	res, err := r.se.Execute(source)
	if d := sw.Stop(); d >= e.slowNS.Load() {
		e.met.slow.Record(d, source)
	}
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			r.se.Abort()
		}
		return "", res.Output, err
	}
	return res.Printed, res.Output, nil
}

// Commit commits the session's transaction, returning the transaction time.
func (e *Executor) Commit(id SessionID) (oop.Time, error) {
	return e.CommitCtx(nil, id)
}

// CommitCtx is Commit bounded by a request context: cancellation is
// honored while waiting for the session's command token and once more
// before the transaction reaches commit admission (aborting it cleanly);
// after admission the commit always runs to durability.
func (e *Executor) CommitCtx(ctx context.Context, id SessionID) (oop.Time, error) {
	r, err := e.session(id)
	if err != nil {
		return 0, err
	}
	if err := r.acquire(ctx); err != nil {
		return 0, err
	}
	defer r.release()
	if r.se == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	return r.se.CommitCtx(ctx)
}

// Abort discards the session's pending changes.
func (e *Executor) Abort(id SessionID) error {
	r, err := e.session(id)
	if err != nil {
		return err
	}
	if err := r.acquire(nil); err != nil {
		return err
	}
	defer r.release()
	if r.se == nil {
		return fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	r.se.Abort()
	return nil
}

// Logout closes a session. It takes the per-session lock before discarding
// the workspace, so a logout cannot race an in-flight Execute on the same
// session, and aborts the session's active transaction so it stops pinning
// the transaction manager's validation log.
func (e *Executor) Logout(id SessionID) error {
	e.mu.Lock()
	r, ok := e.sessions[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	delete(e.sessions, id)
	e.met.logouts.Inc()
	e.met.sessions.Set(int64(len(e.sessions)))
	e.mu.Unlock()
	if err := r.acquire(nil); err != nil {
		return err
	}
	defer r.release()
	if r.se != nil {
		r.se.Close()
		r.se = nil
	}
	return nil
}

// ActiveSessions returns the number of live sessions.
func (e *Executor) ActiveSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}
