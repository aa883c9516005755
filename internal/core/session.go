package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/auth"
	"repro/internal/object"
	"repro/internal/oop"
	"repro/internal/store"
	"repro/internal/txn"
)

// ErrReadOnlyDial reports a write attempted while the time dial is set to a
// past state.
var ErrReadOnlyDial = errors.New("core: time dial set to a past state; writes forbidden")

// ErrNotAnObject reports an operation on an immediate value that needs a
// heap object.
var ErrNotAnObject = errors.New("core: not a heap object")

// Session is one user's connection to the database: a private object space
// over the shared committed store, with optimistic transaction semantics
// and a time dial for historical reads (paper §5.4, §6).
type Session struct {
	db      *DB
	user    string
	homeSeg object.SegmentID
	tx      txn.Txn
	dial    oop.Time // TimeNow means "current state"

	ws     map[uint64]*object.Object // persistent objects with pending writes
	reads  map[oop.OOP]struct{}
	writes map[oop.OOP]struct{}

	// transients are session-private objects not yet attached to any
	// persistent object. They are never validated, never committed, and
	// simply discarded — "an entire session workspace can be discarded at
	// the end of a session" (paper §6), which is how OPAL temporaries
	// avoid both garbage collection and database growth. A transient is
	// promoted into the workspace (with everything it references) the
	// moment it is stored into a persistent object. An owner that knows
	// where a request ends and keeps none of its OOPs drops the rest there
	// (DropTransients); otherwise they live as long as the session.
	transients map[uint64]*object.Object
	// promoted tracks transients promoted during the current transaction,
	// so an abort can demote them instead of losing them.
	promoted map[uint64]*object.Object

	// ctx, when non-nil, bounds the current request: long-running scans and
	// the interpreter poll it and abandon work once it is cancelled. It is
	// set per-request by the session's owner (see SetContext) and cleared
	// when the request returns; it never outlives a request.
	ctx context.Context
	// ctxPoll amortizes context polling: pollCancel consults ctx.Err() only
	// every pollInterval-th call, so per-member scan cost stays flat.
	ctxPoll uint32
}

// pollInterval is how many pollCancel calls pass between real ctx.Err()
// checks. Power of two so the modulus is a mask.
const pollInterval = 64

// NewSession authenticates a user and begins a transaction.
func (db *DB) NewSession(user, password string) (*Session, error) {
	if err := db.auth.Authenticate(user, password); err != nil {
		return nil, err
	}
	home, err := db.auth.HomeSegment(user)
	if err != nil {
		return nil, err
	}
	s := &Session{db: db, user: user, homeSeg: home, dial: oop.TimeNow,
		transients: make(map[uint64]*object.Object)}
	s.begin()
	return s, nil
}

func (s *Session) begin() {
	s.tx = s.db.txm.Begin()
	s.ws = make(map[uint64]*object.Object)
	s.reads = make(map[oop.OOP]struct{})
	s.writes = make(map[oop.OOP]struct{})
	s.promoted = make(map[uint64]*object.Object)
}

// SetContext bounds the session's next request by ctx: scans
// (MembersFunc, MemberCount), the OPAL interpreter loop and CommitCtx
// abandon work once ctx is cancelled. Pass nil to clear. The session is
// single-goroutine, so this is set by the owner between requests, never
// concurrently with one.
func (s *Session) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.ctxPoll = 0
}

// Context returns the request context set by SetContext, or nil.
func (s *Session) Context() context.Context { return s.ctx }

// CancelErr reports whether the session's request context has been
// cancelled, wrapping the cause (context.DeadlineExceeded or
// context.Canceled) so callers can classify it with errors.Is.
func (s *Session) CancelErr() error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("core: request interrupted: %w", err)
	}
	return nil
}

// pollCancel is the amortized form of CancelErr for per-element loops:
// it consults the context only every pollInterval-th call.
func (s *Session) pollCancel() error {
	if s.ctx == nil {
		return nil
	}
	s.ctxPoll++
	if s.ctxPoll&(pollInterval-1) != 0 {
		return nil
	}
	return s.CancelErr()
}

// User returns the session's user name.
func (s *Session) User() string { return s.user }

// DB returns the owning database.
func (s *Session) DB() *DB { return s.db }

// Snapshot returns the committed state this transaction reads.
func (s *Session) Snapshot() oop.Time { return s.tx.Snapshot }

// --- Time dial ---

// SetTimeDial points subsequent reads at the database state at t
// (paper §5.4: "Setting the time dial to time T is the same as appending
// @T to each component in a path expression"). Pass oop.TimeNow to return
// to the current state. Dialing past the last committed time is an error.
func (s *Session) SetTimeDial(t oop.Time) error {
	if !t.IsNow() {
		if err := s.checkTime(t); err != nil {
			return err
		}
	}
	s.dial = t
	return nil
}

// TimeDial returns the current dial setting.
func (s *Session) TimeDial() oop.Time { return s.dial }

// SafeTime returns the most recent state no running transaction can change.
func (s *Session) SafeTime() oop.Time { return s.db.txm.SafeTime() }

// checkTime reports an error for a time after the last commit: that state
// does not exist yet. A time up to the snapshot needs no lock to check.
func (s *Session) checkTime(t oop.Time) error {
	if t <= s.tx.Snapshot {
		return nil
	}
	if last := s.db.txm.LastCommitted(); t > last {
		return fmt.Errorf("core: time %v is in the future (last committed %v)", t, last)
	}
	return nil
}

// View names everything but the objects themselves that a read of a
// committed object depends on: the transaction (its snapshot and read
// set), the time dial, the workspace size and the authorization tables.
// While a session's View is unchanged, every read of an object that is
// Committed answers what the last one did, and the read set still holds
// every read made under it. The workspace only grows within a
// transaction, so the first own write to a committed object changes the
// View.
type View struct {
	tx   txn.ID
	dial oop.Time
	ws   int
	auth auth.Version
}

// View returns the session's current View. It is loads only.
func (s *Session) View() View {
	return View{tx: s.tx.ID, dial: s.dial, ws: len(s.ws), auth: s.db.auth.Version()}
}

// Committed reports whether obj is read from committed state alone:
// neither a session transient nor in the workspace.
func (s *Session) Committed(obj oop.OOP) bool {
	_, transient := s.transients[obj.Serial()]
	_, own := s.ws[obj.Serial()]
	return !transient && !own
}

// --- Object access ---

// seen is what one read of an object sees: the version to read, the state
// to read it in, and whether the session's own pending writes show.
type seen struct {
	ob  *object.Object
	t   oop.Time
	own bool
}

// see is the one read rule. Every read of an object asks it which version
// it may read, in which state, and whether validation must know of it:
//   - A transient has no committed past: every read sees its current value.
//   - A live read (at and the dial both now) sees the snapshot with the
//     session's own pending writes on top. A read at T, from at or the
//     dial, sees committed state at T only; a T after the last commit is
//     an error.
//   - A committed object is read only with its segment's read privilege.
//   - A live read of a committed object enters the read set when record is
//     set. The state at T is immutable and needs no validation.
func (s *Session) see(obj oop.OOP, at oop.Time, record bool) (seen, error) {
	if !obj.IsHeap() {
		return seen{}, fmt.Errorf("%w: %v", ErrNotAnObject, obj)
	}
	if ob, ok := s.transients[obj.Serial()]; ok {
		return seen{ob: ob, t: object.PendingTime}, nil // its newest values
	}
	if at.IsNow() {
		at = s.dial
	}
	live := at.IsNow()
	if live {
		at = s.tx.Snapshot
		if ob, ok := s.ws[obj.Serial()]; ok {
			return seen{ob: ob, t: at, own: true}, nil
		}
	} else if err := s.checkTime(at); err != nil {
		return seen{}, err
	}
	ob, err := s.db.loadCommitted(obj)
	if err != nil {
		// Created by this transaction: no committed state at any T.
		if ob, ok := s.ws[obj.Serial()]; ok {
			return seen{ob: ob, t: at}, nil
		}
		return seen{}, err
	}
	if err := s.db.auth.CheckRead(s.user, ob.Seg); err != nil {
		return seen{}, err
	}
	if live && record {
		s.reads[obj] = struct{}{}
	}
	return seen{ob: ob, t: at}, nil
}

// value is el's value in r: the session's own pending write, if r shows
// one, else the value in force at r.t.
func (r seen) value(el *object.Element) (oop.OOP, bool) {
	if n := len(el.Hist); r.own && n > 0 && el.Hist[n-1].T == object.PendingTime {
		return el.Hist[n-1].Value, true
	}
	return el.At(r.t)
}

// each calls fn with the name and value of every element of r bound to a
// non-nil value, in insertion order, polling the request context.
func (s *Session) each(r seen, fn func(name, v oop.OOP) error) error {
	elems := r.ob.Elements()
	for i := range elems {
		if err := s.pollCancel(); err != nil {
			return err
		}
		if v, ok := r.value(&elems[i]); ok && v != oop.Nil {
			if err := fn(elems[i].Name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Object returns the session's view of o for read-only inspection of its
// header (class, segment, format). It records no read.
func (s *Session) Object(o oop.OOP) (*object.Object, error) {
	r, err := s.see(o, oop.TimeNow, false)
	return r.ob, err
}

// Fetch reads the value of obj's element name in the session's current
// view (snapshot plus the session's own pending writes, or the dialed past
// state). A missing element reads as (nil, false, nil).
func (s *Session) Fetch(obj, name oop.OOP) (oop.OOP, bool, error) {
	return s.FetchAt(obj, name, oop.TimeNow)
}

// FetchAt reads the element in the committed state at an explicit time t,
// ignoring the dial (the @T path operator); t = oop.TimeNow is Fetch. A t
// after the last commit is an error.
func (s *Session) FetchAt(obj, name oop.OOP, t oop.Time) (oop.OOP, bool, error) {
	r, err := s.see(obj, t, true)
	if err != nil {
		return oop.Invalid, false, err
	}
	if el := r.ob.Element(name); el != nil {
		if v, ok := r.value(el); ok {
			return v, true, nil
		}
	}
	return oop.Nil, false, nil
}

// modifiable returns a workspace copy of obj, cloning the committed version
// on first write.
func (s *Session) modifiable(obj oop.OOP) (*object.Object, error) {
	// Session-private transients may be built and mutated even under a
	// dialed session (they are not part of any database state); only
	// persistent objects are frozen by the time dial.
	if ob, ok := s.transients[obj.Serial()]; ok {
		return ob, nil
	}
	if !s.dial.IsNow() {
		return nil, ErrReadOnlyDial
	}
	if ob, ok := s.ws[obj.Serial()]; ok {
		return ob, nil
	}
	ob, err := s.db.loadCommitted(obj)
	if err != nil {
		return nil, err
	}
	if err := s.db.auth.CheckWrite(s.user, ob.Seg); err != nil {
		return nil, err
	}
	clone := ob.Clone()
	s.ws[obj.Serial()] = clone
	s.reads[obj] = struct{}{}
	s.writes[obj] = struct{}{}
	return clone, nil
}

// promote attaches a transient object (and, transitively, every transient
// it references, its class included) to the persistent workspace so it
// will be committed.
func (s *Session) promote(v oop.OOP) {
	if !v.IsHeap() {
		return
	}
	ob, ok := s.transients[v.Serial()]
	if !ok {
		return
	}
	delete(s.transients, v.Serial())
	s.ws[v.Serial()] = ob
	s.writes[v] = struct{}{}
	s.promoted[v.Serial()] = ob
	s.promote(ob.Class)
	for _, el := range ob.Elements() {
		for _, a := range el.Hist {
			s.promote(a.Value)
		}
	}
}

// isPersistent reports whether obj is already in the durable graph (or the
// dirty workspace), as opposed to a session transient.
func (s *Session) isPersistent(obj oop.OOP) bool {
	if _, transient := s.transients[obj.Serial()]; transient {
		return false
	}
	return true
}

// Store records value as the new value of obj's element name. Storing a
// transient into a persistent object promotes the transient.
func (s *Session) Store(obj, name, value oop.OOP) error {
	ob, err := s.modifiable(obj)
	if err != nil {
		return err
	}
	if err := ob.Store(name, object.PendingTime, value); err != nil {
		return err
	}
	if s.isPersistent(obj) {
		s.promote(value)
	}
	return nil
}

// Remove records nil for the element — the model's replacement for
// deletion; the history remains.
func (s *Session) Remove(obj, name oop.OOP) error {
	return s.Store(obj, name, oop.Nil)
}

// HistoryEntry is one committed association of an element's history.
type HistoryEntry struct {
	T     oop.Time
	Value oop.OOP
}

// History returns the committed history of obj's element name, oldest
// first: the paper's association table (§6) as data. It stops at the time
// the session reads: the snapshot, or the dialed state. So it never shows
// pending writes or a commit made after the snapshot, and a live call is
// recorded for validation like any other read.
func (s *Session) History(obj, name oop.OOP) ([]HistoryEntry, error) {
	r, err := s.see(obj, oop.TimeNow, true)
	if err != nil {
		return nil, err
	}
	e := r.ob.Element(name)
	if e == nil {
		return nil, nil
	}
	out := make([]HistoryEntry, 0, len(e.Hist))
	for _, a := range e.Hist {
		if a.T > r.t || a.T == object.PendingTime {
			break
		}
		out = append(out, HistoryEntry{T: a.T, Value: a.Value})
	}
	return out, nil
}

// ElementNames lists the names bound to non-nil values in the session's
// current view of obj, in insertion order.
func (s *Session) ElementNames(obj oop.OOP) ([]oop.OOP, error) {
	r, err := s.see(obj, oop.TimeNow, true)
	if err != nil {
		return nil, err
	}
	var names []oop.OOP
	err = s.each(r, func(name, _ oop.OOP) error {
		names = append(names, name)
		return nil
	})
	return names, err
}

// ClassOf returns the class of any value, immediates included. A heap
// object the session may not read, or that does not exist, is an error.
func (s *Session) ClassOf(o oop.OOP) (oop.OOP, error) {
	k := s.db.kernel
	switch {
	case o == oop.Nil:
		return k.UndefinedObject, nil
	case o == oop.True:
		return k.TrueClass, nil
	case o == oop.False:
		return k.FalseClass, nil
	case o.IsSmallInt():
		return k.SmallInteger, nil
	case o.IsCharacter():
		return k.Character, nil
	}
	r, err := s.see(o, oop.TimeNow, false)
	if err != nil {
		return oop.Invalid, err
	}
	return r.ob.Class, nil
}

// --- Creation ---

// NewObject instantiates class, giving the instance a fresh permanent
// identity in the user's home segment.
func (s *Session) NewObject(class oop.OOP) (oop.OOP, error) {
	return s.NewObjectIn(class, s.homeSeg)
}

// NewObjectIn instantiates class in an explicit segment.
func (s *Session) NewObjectIn(class oop.OOP, seg object.SegmentID) (oop.OOP, error) {
	if err := s.db.auth.CheckWrite(s.user, seg); err != nil {
		return oop.Invalid, err
	}
	format := object.FormatNamed
	if f, ok, err := s.Fetch(class, s.db.wk.format); err == nil && ok && f.IsSmallInt() {
		format = object.Format(f.Int())
	}
	o := oop.FromSerial(s.db.allocSerial())
	ob := object.New(o, class, seg, format)
	s.transients[o.Serial()] = ob
	return o, nil
}

// NewSharedObject instantiates class in the published, world-writable
// segment — the home of World — so every user can read and update it.
func (s *Session) NewSharedObject(class oop.OOP) (oop.OOP, error) {
	return s.NewObjectIn(class, s.db.pubSeg)
}

// HomeSegment returns the session user's default segment.
func (s *Session) HomeSegment() object.SegmentID { return s.homeSeg }

// NewString creates a String object with the given contents.
func (s *Session) NewString(str string) (oop.OOP, error) {
	o, err := s.NewObjectIn(s.db.kernel.String, s.homeSeg)
	if err != nil {
		return oop.Invalid, err
	}
	if err := s.transients[o.Serial()].SetBytes(object.PendingTime, []byte(str)); err != nil {
		return oop.Invalid, err
	}
	return o, nil
}

// SetBytes replaces the byte payload of a byte object.
func (s *Session) SetBytes(obj oop.OOP, b []byte) error {
	ob, err := s.modifiable(obj)
	if err != nil {
		return err
	}
	return ob.SetBytes(object.PendingTime, append([]byte(nil), b...))
}

// BytesOf returns the byte payload in the session's current view.
func (s *Session) BytesOf(obj oop.OOP) ([]byte, error) {
	r, err := s.see(obj, oop.TimeNow, true)
	if err != nil {
		return nil, err
	}
	if vs := r.ob.ByteVersions(); r.own && len(vs) > 0 && vs[len(vs)-1].T == object.PendingTime {
		return vs[len(vs)-1].Bytes, nil
	}
	b, _ := r.ob.BytesAt(r.t)
	return b, nil
}

// NewFloat creates a boxed Float.
func (s *Session) NewFloat(f float64) (oop.OOP, error) {
	o, err := s.NewObjectIn(s.db.kernel.Float, s.homeSeg)
	if err != nil {
		return oop.Invalid, err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	if err := s.transients[o.Serial()].SetBytes(object.PendingTime, b[:]); err != nil {
		return oop.Invalid, err
	}
	return o, nil
}

// FloatValue decodes a boxed Float.
func (s *Session) FloatValue(obj oop.OOP) (float64, error) {
	b, err := s.BytesOf(obj)
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("core: %v is not a Float", obj)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Symbol interns a symbol.
func (s *Session) Symbol(name string) oop.OOP { return s.db.SymbolFor(name) }

// SymbolName resolves a symbol OOP.
func (s *Session) SymbolName(o oop.OOP) (string, bool) { return s.db.SymbolName(o) }

// Globals returns the system dictionary of named globals.
func (s *Session) Globals() oop.OOP { return s.db.globals }

// Global resolves a global by name: first the system globals dictionary
// (class names, World, System), then elements of World itself — so data
// anchored at World (the paper's path examples all start there) can serve
// directly as path roots: after `World at: #X put: x`, the path
// X!Departments!A16 resolves.
func (s *Session) Global(name string) (oop.OOP, bool) {
	sym := s.db.SymbolFor(name)
	if v, ok, err := s.Fetch(s.db.globals, sym); err == nil && ok && v != oop.Nil {
		return v, true
	}
	world, ok, err := s.Fetch(s.db.globals, s.db.SymbolFor("World"))
	if err != nil || !ok || !world.IsHeap() {
		return oop.Invalid, false
	}
	if v, ok, err := s.Fetch(world, sym); err == nil && ok && v != oop.Nil {
		return v, true
	}
	return oop.Invalid, false
}

// SetGlobal binds a global name (administrators only; globals live in the
// system segment).
func (s *Session) SetGlobal(name string, value oop.OOP) error {
	return s.Store(s.db.globals, s.db.SymbolFor(name), value)
}

// --- Transactions ---

// Commit validates and atomically applies the session's pending writes,
// returning the assigned transaction time. The durable apply is performed
// by the group committer, which coalesces every concurrently validated
// session into one safe-write; Commit blocks until this session's group is
// durable. On conflict the workspace is discarded, a fresh transaction
// begins, and the error wraps txn.ErrConflict.
func (s *Session) Commit() (oop.Time, error) {
	return s.CommitCtx(nil)
}

// CommitCtx is Commit bounded by a request context: if ctx is already
// cancelled before the transaction reaches the commit pipeline's
// admission, the transaction is aborted (workspace discarded, fresh
// transaction begun, no transaction time consumed) and the cancellation
// error is returned. Once admitted, the commit runs to durability — a
// deadline never abandons a transaction whose time has been assigned.
// A nil ctx commits unconditionally.
func (s *Session) CommitCtx(ctx context.Context) (oop.Time, error) {
	t, err := s.db.txm.CommitCtx(ctx, s.tx, s.reads, s.writes, s.ws)
	if err != nil {
		s.demotePromoted()
		s.begin()
		return 0, err
	}
	s.begin()
	return t, nil
}

// CommitKernel applies the workspace at kernel time (time 0), so the
// written objects are visible in every past state of the database. It is
// reserved for bootstrap-style image installation (kernel classes and
// methods) before the database serves concurrent sessions: it bypasses
// optimistic validation and does not consume a transaction time.
func (s *Session) CommitKernel() error {
	batch := sortedWorkspace(s.ws)
	s.db.mu.Lock()
	symObjs := s.db.takePendingSymbolsLocked()
	s.db.mu.Unlock()
	for _, ob := range batch {
		ob.RestampPending(0)
	}
	batch = append(batch, symObjs...)
	if err := s.db.st.Apply(store.Commit{
		Objects:    batch,
		NextSerial: s.db.serialHighWater(),
		Time:       s.db.txm.LastCommitted(),
	}); err != nil {
		return err
	}
	s.db.mu.Lock()
	for _, ob := range batch {
		s.db.publish(ob)
	}
	s.db.mu.Unlock()
	s.db.txm.Abort(s.tx)
	s.begin()
	return nil
}

// Abort discards all pending changes and begins a fresh transaction.
// Transients promoted during the aborted transaction return to the
// transient space so references to them stay valid.
func (s *Session) Abort() {
	s.db.txm.Abort(s.tx)
	s.demotePromoted()
	s.begin()
}

// Close retires the session: its active transaction is aborted and no new
// one is begun, so a departed session stops pinning the transaction
// manager's validation log. The session must not be used after Close.
func (s *Session) Close() {
	s.db.txm.Abort(s.tx)
}

// DropTransients ends a request for an owner that keeps none of its OOPs:
// it drops every transient not reachable from the workspace's pending
// values, the only roots such a request leaves. A read-only request leaves
// none, so the whole transient space goes at once. A dropped transient's
// serial is never reused, so a stale reference to it fails to read.
func (s *Session) DropTransients() {
	kept := make(map[uint64]*object.Object)
	var reached []*object.Object
	keep := func(v oop.OOP) {
		if !v.IsHeap() {
			return
		}
		if ob, ok := s.transients[v.Serial()]; ok {
			if _, done := kept[v.Serial()]; !done {
				kept[v.Serial()] = ob
				reached = append(reached, ob)
			}
		}
	}
	for _, ob := range sortedWorkspace(s.ws) {
		eachPendingRef(ob, keep)
	}
	for len(reached) > 0 {
		ob := reached[len(reached)-1]
		reached = reached[:len(reached)-1]
		eachPendingRef(ob, keep)
	}
	s.transients = kept
}

// eachPendingRef calls fn with ob's class and the pending value of each of
// its elements: every reference ob holds that is not yet committed.
func eachPendingRef(ob *object.Object, fn func(oop.OOP)) {
	fn(ob.Class)
	for _, el := range ob.Elements() {
		if n := len(el.Hist); n > 0 && el.Hist[n-1].T == object.PendingTime {
			fn(el.Hist[n-1].Value)
		}
	}
}

// Transients reports how many transients the session holds.
func (s *Session) Transients() int { return len(s.transients) }

func (s *Session) demotePromoted() {
	for serial, ob := range s.promoted {
		s.transients[serial] = ob
	}
}

// sortedWorkspace flattens a workspace into a serial-ordered object batch.
// The slice has spare capacity for the commit's symbol objects.
func sortedWorkspace(ws map[uint64]*object.Object) []*object.Object {
	serials := make([]uint64, 0, len(ws))
	for serial := range ws {
		serials = append(serials, serial)
	}
	sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
	batch := make([]*object.Object, 0, len(ws)+8)
	for _, serial := range serials {
		batch = append(batch, ws[serial])
	}
	return batch
}

// applyCommitGroup is the Linker (paper §6) running as the group
// committer: it "incorporates updates made by a transaction in the
// permanent database at commit time, calling for restructuring of
// directories as needed" — for every member of a durability group in one
// safe-write. However many sessions validated while the previous group was
// on its way to disk, the whole group costs one boxer pass, one
// object-table copy-on-write, one directory chain and one superblock flip.
// Exactly one call runs at a time (the transaction manager's flush token).
func (db *DB) applyCommitGroup(group []*txn.Pending) error {
	// Members arrive in ascending transaction-time order with disjoint
	// write sets (validation would have failed any overlap). Serial order
	// within each member keeps the packed track image byte-deterministic
	// for a given commit sequence (detmap invariant).
	batch := make([]*object.Object, 0, len(group)+8)
	for _, p := range group {
		member := sortedWorkspace(p.Payload.(map[uint64]*object.Object))
		for _, ob := range member {
			ob.RestampPending(p.Time)
		}
		batch = append(batch, member...)
	}
	// Directory maintenance after the durable write, so a failed store
	// apply cannot leave directories ahead of the database.
	db.mu.Lock()
	drained := db.newSyms
	symObjs := db.takePendingSymbolsLocked()
	db.mu.Unlock()

	batch = append(batch, symObjs...)

	if err := db.st.Apply(store.Commit{
		Objects:    batch,
		NextSerial: db.serialHighWater(),
		Time:       group[len(group)-1].Time,
	}); err != nil {
		// Nothing was published: re-queue the drained symbols so interned
		// names are not lost with the failed group.
		db.mu.Lock()
		db.newSyms = append(drained, db.newSyms...)
		db.mu.Unlock()
		return err
	}
	db.mu.Lock()
	for _, ob := range batch {
		db.publish(ob)
	}
	// Directories see each member's post-commit state via the refreshed
	// cache, maintained in commit order. A maintenance failure is reported
	// to that member alone; the group is already durable.
	for _, p := range group {
		if err := db.maintainDirectoriesLocked(p.Payload.(map[uint64]*object.Object), p.Time); err != nil {
			p.Fail(err)
		}
	}
	db.mu.Unlock()
	return nil
}

// --- Convenience for labeled sets ---

// AddToSet binds member into set under a fresh system-generated alias
// element name ("For sets without labels, arbitrary aliases are used as
// element names", §5.1) and returns the alias symbol.
func (s *Session) AddToSet(set, member oop.OOP) (oop.OOP, error) {
	ob, err := s.modifiable(set)
	if err != nil {
		return oop.Invalid, err
	}
	// Per-set alias counter kept in a hidden element.
	n := int64(0)
	if v, ok := ob.Fetch(s.db.wk.aliasCounter); ok && v.IsSmallInt() {
		n = v.Int()
	}
	n++
	if err := ob.Store(s.db.wk.aliasCounter, object.PendingTime, oop.MustInt(n)); err != nil {
		return oop.Invalid, err
	}
	alias := s.db.SymbolFor(fmt.Sprintf("a%d.%d", set.Serial(), n))
	if err := ob.Store(alias, object.PendingTime, member); err != nil {
		return oop.Invalid, err
	}
	if s.isPersistent(set) {
		s.promote(member)
	}
	return alias, nil
}

// IsAlias reports whether an element name is a system-generated alias
// created by AddToSet (alias names have the form a<set>.<n>).
func (s *Session) IsAlias(name oop.OOP) bool {
	str, ok := s.db.SymbolName(name)
	if !ok || len(str) < 4 || str[0] != 'a' {
		return false
	}
	dot := false
	for _, r := range str[1:] {
		if r == '.' {
			if dot {
				return false
			}
			dot = true
			continue
		}
		if r < '0' || r > '9' {
			return false
		}
	}
	return dot
}

// RemoveFromSet unbinds the member bound under the given element name.
func (s *Session) RemoveFromSet(set, name oop.OOP) error {
	return s.Remove(set, name)
}

// MembersFunc streams the members of set in the current view to fn, in
// element insertion order, excluding the hidden alias counter: one pass
// over the set object's own elements, no member slice. Iteration stops at
// the first error from fn, which is returned. The callback must not write
// to the session.
func (s *Session) MembersFunc(set oop.OOP, fn func(oop.OOP) error) error {
	s.db.met.scans.Inc()
	s.db.met.cursorOpens.Inc()
	r, err := s.see(set, oop.TimeNow, true)
	if err != nil {
		return err
	}
	return s.each(r, func(name, v oop.OOP) error {
		if name == s.db.wk.aliasCounter {
			return nil
		}
		s.db.met.cursorMembers.Inc()
		return fn(v)
	})
}

// MemberCount returns the number of members of set in the current view
// without materializing a member slice and without counting as a membership
// scan: it reads only the set object's own element table, never a member
// body. The planner uses it so that cost estimation touches no data pages.
func (s *Session) MemberCount(set oop.OOP) (int, error) {
	s.db.met.memberCounts.Inc()
	r, err := s.see(set, oop.TimeNow, true)
	if err != nil {
		return 0, err
	}
	n := 0
	err = s.each(r, func(name, _ oop.OOP) error {
		if name != s.db.wk.aliasCounter {
			n++
		}
		return nil
	})
	return n, err
}

// Archive moves committed objects to the simulated offline medium
// ("A database administrator can explicitly move objects to other media",
// §6). Administrators only. While the archive is attached the objects stay
// readable; after DetachArchive they become "temporarily or permanently
// inaccessible".
func (s *Session) Archive(oops []oop.OOP) error {
	if !s.db.auth.IsAdmin(s.user) {
		return fmt.Errorf("%w: %s cannot archive", auth.ErrDenied, s.user)
	}
	return s.db.st.Archive(s.db.txm.LastCommitted(), oops)
}

// DetachArchive dismounts the offline medium (administrators only).
func (s *Session) DetachArchive() error {
	if !s.db.auth.IsAdmin(s.user) {
		return fmt.Errorf("%w: %s cannot detach the archive", auth.ErrDenied, s.user)
	}
	s.db.st.DetachArchive()
	return nil
}

// Authorize helpers: administrative operations that also persist the auth
// state as a versioned object.

// CreateUser adds a database user (admin only) and persists the change.
func (s *Session) CreateUser(name, password string) error {
	if err := s.db.auth.CreateUser(s.user, name, password); err != nil {
		return err
	}
	return s.db.persistAuth()
}

// CreateSegment adds a segment owned by the session user.
func (s *Session) CreateSegment(world auth.Privilege) (object.SegmentID, error) {
	seg, err := s.db.auth.CreateSegment(s.user, world)
	if err != nil {
		return 0, err
	}
	return seg, s.db.persistAuth()
}

// Grant sets a user's privilege on a segment.
func (s *Session) Grant(seg object.SegmentID, name string, p auth.Privilege) error {
	if err := s.db.auth.Grant(s.user, seg, name, p); err != nil {
		return err
	}
	return s.db.persistAuth()
}
