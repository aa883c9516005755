// Package txn implements the Transaction Manager (paper §6): it "handles
// concurrent use of the permanent database in an optimistic manner. It
// records accesses to the database for each session, and validates them for
// consistency when a transaction commits."
//
// Sessions run against a snapshot (their begin time), record the OOPs they
// read and write, and validate backwards at commit: a transaction commits
// only if no transaction that committed after its snapshot wrote an object
// it read or wrote (first committer wins). Validation and transaction-time
// assignment run under one short commit lock, so commit order equals time
// order — but durability is pipelined: validated write sets queue for a
// group committer, and whichever waiter acquires the flush token leads the
// whole queue through a single safe-write. Sessions that validate while a
// group is on its way to disk share the next group's one superblock flip
// and one sync per replica, the paper's "safe writing" of a track group
// amortized across every concurrently committing session.
package txn

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/oop"
)

// ErrConflict reports a failed validation; the session must abort and
// refresh its view.
var ErrConflict = errors.New("txn: commit conflict")

// ErrGroupAborted reports a commit that had validated behind a durability
// group whose apply failed: the whole unpublished tail rolls back together
// (times stay gap-free), and the session must retry from a fresh snapshot.
var ErrGroupAborted = errors.New("txn: commit group aborted")

// ID identifies an active transaction.
type ID uint64

// Txn is a handle for one active transaction.
type Txn struct {
	ID       ID
	Snapshot oop.Time // the committed state this transaction reads
}

type commitRecord struct {
	time   oop.Time
	writes []oop.OOP // ascending; deterministic validation order
}

// Pending is one validated write transaction awaiting durability as a
// member of a commit group. The manager owns the synchronization; the
// applier reads Time and Payload and may record a per-member error.
type Pending struct {
	Time    oop.Time // the assigned transaction time
	Payload any      // the session's write set, opaque to the manager

	err  error
	done chan struct{} // closed when the member's group resolves
}

// Fail records a post-durability error for this member (for example a
// directory-maintenance failure). The group stays durable and published;
// only this member's Commit call reports the error.
func (p *Pending) Fail(err error) { p.err = err }

// Applier makes a whole commit group durable in one pass. Members arrive
// in ascending transaction-time order with pairwise-disjoint write sets
// (validation guarantees it: any overlap would have been a write-write
// conflict). Exactly one applier call runs at a time, never under the
// manager's lock. Returning an error means nothing in the group became
// durable; the manager rolls the group back as a unit.
type Applier func(group []*Pending) error

// Manager coordinates transactions across sessions.
type Manager struct {
	mu            sync.Mutex // guards lastAssigned, lastPublished, nextID, active, log, recent, pending, lastGroup
	lastAssigned  oop.Time   // validation / time-assignment high water (includes unpublished)
	lastPublished oop.Time   // durable, cache-visible high water
	nextID        ID
	active        map[ID]oop.Time      // id -> snapshot
	log           []commitRecord       // validated write sets, ascending time
	recent        map[oop.OOP]oop.Time // newest logged write per OOP (mirrors log)
	pending       []*Pending           // validated, awaiting the next group flush
	lastGroup     int                  // size of the last flushed group (gathering heuristic)

	applier  Applier
	flushTok chan struct{} // capacity 1: holding the token = leading a flush
	met      metrics
}

// metrics are the manager's obs instruments. All fields are nil (no-op)
// until Instrument attaches a registry; every instrument is safe for
// concurrent use, so none of this is guarded by mu.
type metrics struct {
	begun          *obs.Counter
	commits        *obs.Counter
	aborts         *obs.Counter // explicit session aborts
	conflictsRead  *obs.Counter // read-write conflicts at validation
	conflictsWrite *obs.Counter // write-write conflicts at validation
	groupAborts    *obs.Counter // commits rolled back with a failed group
	deadlineAborts *obs.Counter // commits abandoned pre-admission on an expired deadline
	groups         *obs.Counter // durability groups flushed
	groupSize      *obs.Histogram
	gatherSpins    *obs.Histogram // yields spent gathering each group
	validateNS     *obs.Histogram // admission: commit-lock wait + validation
}

// Instrument attaches the manager's counters to a registry. Call before
// the manager serves concurrent sessions; a nil registry leaves
// instrumentation disabled.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.met = metrics{
		begun:          reg.Counter("txn.begun"),
		commits:        reg.Counter("txn.commits"),
		aborts:         reg.Counter("txn.aborts"),
		conflictsRead:  reg.Counter("txn.conflicts.read"),
		conflictsWrite: reg.Counter("txn.conflicts.write"),
		groupAborts:    reg.Counter("txn.group.aborts"),
		deadlineAborts: reg.Counter("txn.deadline.aborts"),
		groups:         reg.Counter("txn.groups"),
		groupSize:      reg.Histogram("txn.group.size", obs.SizeBounds),
		gatherSpins:    reg.Histogram("txn.gather.spins", obs.SizeBounds),
		validateNS:     reg.Histogram("txn.validate.ns", obs.LatencyBounds),
	}
}

// NewManager creates a Manager whose next transaction time follows
// lastCommitted (recovered from the store's superblock). applier is the
// group committer; a nil applier publishes commits immediately (unit
// tests and tools with no durable store).
func NewManager(lastCommitted oop.Time, applier Applier) *Manager {
	return &Manager{
		lastAssigned:  lastCommitted,
		lastPublished: lastCommitted,
		nextID:        1,
		active:        make(map[ID]oop.Time),
		recent:        make(map[oop.OOP]oop.Time),
		applier:       applier,
		flushTok:      make(chan struct{}, 1),
	}
}

// Begin starts a transaction reading the current committed state. The
// snapshot never includes unpublished commits: a session must not read
// cache state the group committer has not yet made durable.
func (m *Manager) Begin() Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := Txn{ID: m.nextID, Snapshot: m.lastPublished}
	m.nextID++
	m.active[t.ID] = t.Snapshot
	m.met.begun.Inc()
	return t
}

// Commit validates the transaction and, if valid, assigns the next
// transaction time, queues payload for the group committer, and blocks
// until the commit's group is durable. If the group's apply fails no time
// is consumed. Read-only transactions (empty writes) validate but are not
// assigned a time and do not wait for any group.
func (m *Manager) Commit(t Txn, reads, writes map[oop.OOP]struct{}, payload any) (oop.Time, error) {
	return m.CommitCtx(nil, t, reads, writes, payload)
}

// CommitCtx is Commit bounded by a request context, checked once before
// admission: a commit whose deadline has already expired is aborted — the
// transaction is retired, no transaction time is consumed, and the
// cancellation error is returned wrapped. Past that point the deadline is
// ignored: admission assigns a transaction time, and a timed-out waiter
// abandoning a validated group member would leave a gap in the time
// sequence or an un-acknowledged durable commit. A nil ctx never cancels.
func (m *Manager) CommitCtx(ctx context.Context, t Txn, reads, writes map[oop.OOP]struct{}, payload any) (oop.Time, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			m.met.deadlineAborts.Inc()
			m.Abort(t)
			return 0, fmt.Errorf("txn: commit abandoned before admission: %w", err)
		}
	}
	sw := m.met.validateNS.Start()
	m.mu.Lock()
	commit, p, err := m.admitLocked(t, reads, writes, payload)
	m.mu.Unlock()
	sw.Stop()
	if err != nil || p == nil {
		return commit, err
	}
	return m.awaitGroup(p)
}

// admitLocked validates, assigns the transaction time and queues the write
// set for the next durability group. A nil Pending means the commit
// completed immediately (conflict, read-only, or no applier installed).
func (m *Manager) admitLocked(t Txn, reads, writes map[oop.OOP]struct{}, payload any) (oop.Time, *Pending, error) {
	snap, ok := m.active[t.ID]
	if !ok {
		return 0, nil, fmt.Errorf("txn: transaction %d not active", t.ID)
	}
	// Backward validation through the recent-writer index: one probe per
	// OOP in the read and write sets instead of a scan over every commit
	// after the snapshot. Sorting newest-commit-first then serial-ascending
	// picks exactly the conflict the old newest-first, serial-ordered log
	// scan reported, so the error is unchanged for the same history.
	var clashes []oop.OOP
	for o := range reads {
		if at, ok := m.recent[o]; ok && at > snap {
			clashes = append(clashes, o)
		}
	}
	for o := range writes {
		if at, ok := m.recent[o]; ok && at > snap {
			clashes = append(clashes, o)
		}
	}
	sort.Slice(clashes, func(i, j int) bool {
		ti, tj := m.recent[clashes[i]], m.recent[clashes[j]]
		if ti != tj {
			return ti > tj
		}
		return clashes[i].Serial() < clashes[j].Serial()
	})
	if len(clashes) > 0 {
		clash, when := clashes[0], m.recent[clashes[0]]
		m.finishLocked(t.ID)
		if _, isRead := reads[clash]; isRead {
			m.met.conflictsRead.Inc()
			return 0, nil, fmt.Errorf("%w: %v written at %v after snapshot %v", ErrConflict, clash, when, snap)
		}
		m.met.conflictsWrite.Inc()
		return 0, nil, fmt.Errorf("%w: write-write on %v at %v after snapshot %v", ErrConflict, clash, when, snap)
	}
	if len(writes) == 0 {
		m.met.commits.Inc()
		m.finishLocked(t.ID)
		return snap, nil, nil
	}
	commit := m.lastAssigned + 1
	m.lastAssigned = commit
	ws := make([]oop.OOP, 0, len(writes))
	for w := range writes {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Serial() < ws[j].Serial() })
	m.log = append(m.log, commitRecord{time: commit, writes: ws})
	for _, w := range ws {
		m.recent[w] = commit
	}
	m.finishLocked(t.ID)
	if m.applier == nil {
		m.lastPublished = commit
		m.met.commits.Inc()
		m.trimLocked()
		return commit, nil, nil
	}
	p := &Pending{Time: commit, Payload: payload, done: make(chan struct{})}
	m.pending = append(m.pending, p)
	return commit, p, nil
}

// awaitGroup blocks until p's durability group has resolved. Any waiter
// that acquires the flush token becomes the leader for every currently
// queued commit; the rest sleep until their member is closed out.
func (m *Manager) awaitGroup(p *Pending) (oop.Time, error) {
	for {
		select {
		case <-p.done:
			if p.err != nil {
				return 0, p.err
			}
			return p.Time, nil
		case m.flushTok <- struct{}{}:
			m.flushGroup()
			<-m.flushTok
		}
	}
}

// gatherSpins bounds the group-gathering wait at roughly 100–200µs of
// Gosched yields — on the order of one device sync, the cost the gathered
// members avoid paying individually.
const gatherSpins = 1000

// flushGroup drains the pending queue and leads it through one applier
// call. Caller holds the flush token.
//
// When the previous group was concurrent, the members it woke are probably
// preparing their next write sets right now; draining immediately would
// commit a singleton group and leave them to sync separately. So the
// leader first yields until as many commits as the last group carried have
// queued (or the window closes). Sequential workloads never gathered a
// group and never wait: the heuristic only spends time when recent history
// proves there is company worth waiting for.
func (m *Manager) flushGroup() {
	m.mu.Lock()
	want := m.lastGroup
	m.mu.Unlock()
	spins := 0
	if want > 1 {
		// Sleeping is far too coarse for a window this small (millisecond
		// timer granularity vs a ~100µs sync), so yield-spin instead.
		for ; spins < gatherSpins; spins++ {
			m.mu.Lock()
			n := len(m.pending)
			m.mu.Unlock()
			if n >= want {
				break
			}
			runtime.Gosched()
		}
	}
	m.mu.Lock()
	group := m.pending
	m.pending = nil
	m.lastGroup = len(group)
	m.mu.Unlock()
	if len(group) == 0 {
		return
	}
	m.met.gatherSpins.Observe(uint64(spins))
	m.met.groupSize.Observe(uint64(len(group)))
	err := m.applier(group)
	m.mu.Lock()
	if err == nil {
		m.lastPublished = group[len(group)-1].Time
		m.met.groups.Inc()
		m.met.commits.Add(uint64(len(group)))
		m.trimLocked()
		m.mu.Unlock()
		for _, p := range group {
			close(p.done)
		}
		return
	}
	// The group failed: nothing in it is durable. Roll back the whole
	// unpublished tail — the failed group and any commits validated behind
	// it since — so transaction times stay gap-free and the validation log
	// never vouches for state that does not exist.
	tail := m.pending
	m.pending = nil
	m.rollbackUnpublishedLocked()
	m.mu.Unlock()
	m.met.groupAborts.Add(uint64(len(group) + len(tail)))
	for _, p := range group {
		p.err = err
		close(p.done)
	}
	for _, p := range tail {
		p.err = fmt.Errorf("%w: %v", ErrGroupAborted, err)
		close(p.done)
	}
}

// rollbackUnpublishedLocked discards every log entry newer than the
// published watermark and rebuilds the recent-writer index from the
// surviving log.
func (m *Manager) rollbackUnpublishedLocked() {
	cut := len(m.log)
	for cut > 0 && m.log[cut-1].time > m.lastPublished {
		cut--
	}
	m.log = m.log[:cut]
	m.lastAssigned = m.lastPublished
	m.recent = make(map[oop.OOP]oop.Time, len(m.recent))
	for _, rec := range m.log {
		for _, w := range rec.writes {
			m.recent[w] = rec.time
		}
	}
}

// Abort discards an active transaction.
func (m *Manager) Abort(t Txn) {
	m.met.aborts.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishLocked(t.ID)
}

// finishLocked retires a transaction and trims the validation log.
func (m *Manager) finishLocked(id ID) {
	delete(m.active, id)
	m.trimLocked()
}

// trimLocked discards validation log entries no active snapshot can still
// conflict with, and their index entries. Unpublished entries are never
// trimmed: the group committer may still have to roll them back.
func (m *Manager) trimLocked() {
	if len(m.log) == 0 {
		return
	}
	oldest := m.lastPublished
	//lint:ignore detmap commutative min over active snapshots; order cannot be observed
	for _, snap := range m.active {
		if snap < oldest {
			oldest = snap
		}
	}
	cut := 0
	for cut < len(m.log) && m.log[cut].time <= oldest {
		cut++
	}
	if cut == 0 {
		return
	}
	for _, rec := range m.log[:cut] {
		for _, w := range rec.writes {
			if at, ok := m.recent[w]; ok && at <= oldest {
				delete(m.recent, w)
			}
		}
	}
	m.log = append([]commitRecord(nil), m.log[cut:]...)
}

// LastCommitted returns the newest published (durable) transaction time.
func (m *Manager) LastCommitted() oop.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastPublished
}

// SafeTime returns the most recent state that no currently running
// transaction can change (paper §5.4): with optimistic control and
// append-only history every committed state is immutable, so SafeTime is
// the newest published time at the moment of the call. A read-only session
// dialed to SafeTime sees a stable, fully committed state.
func (m *Manager) SafeTime() oop.Time {
	return m.LastCommitted()
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// PendingCount returns validated commits not yet made durable.
func (m *Manager) PendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}
