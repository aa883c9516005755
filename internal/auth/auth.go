// Package auth implements the Object Manager's authorization duties
// (paper §6): users, segments and per-segment privileges. Every object
// belongs to one segment; a session acts for one user; fetches require read
// privilege on the object's segment and stores require write privilege.
// Segment 0 is the world-readable system segment holding kernel classes.
package auth

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/object"
)

// Privilege is the access level a user holds on a segment.
type Privilege uint8

const (
	None Privilege = iota
	Read
	Write
)

func (p Privilege) String() string {
	switch p {
	case None:
		return "none"
	case Read:
		return "read"
	case Write:
		return "write"
	}
	return fmt.Sprintf("privilege(%d)", uint8(p))
}

// ErrDenied reports an authorization failure.
var ErrDenied = errors.New("auth: access denied")

// ErrNoUser reports an unknown user or bad password.
var ErrNoUser = errors.New("auth: unknown user or bad password")

// SystemSegment holds kernel classes and globals; world-readable.
const SystemSegment object.SegmentID = 0

// SystemUser is the bootstrap administrator.
const SystemUser = "SystemUser"

type segment struct {
	owner string
	world Privilege
	users map[string]Privilege // never mutated once published: Grant copies
}

type user struct {
	passHash [32]byte
	admin    bool
	home     object.SegmentID // default segment for objects the user creates
}

// state is one immutable snapshot of the authorization tables. Readers use
// it without a lock; a writer edits a clone and publishes that. Records are
// values, and a segment's ACL map is replaced rather than written, so a
// published snapshot never changes.
type state struct {
	users    map[string]user
	segments map[object.SegmentID]segment
	nextSeg  object.SegmentID
}

// clone copies the top-level tables; records are shared until replaced.
func (st *state) clone() *state {
	c := &state{
		users:    make(map[string]user, len(st.users)+1),
		segments: make(map[object.SegmentID]segment, len(st.segments)+1),
		nextSeg:  st.nextSeg,
	}
	for n, u := range st.users {
		c.users[n] = u
	}
	for id, s := range st.segments {
		c.segments[id] = s
	}
	return c
}

// Authorizer is the in-memory authorization state. It is itself stored in
// the database by the core package (as objects in the system segment) and
// rebuilt on open; this type is the enforcement engine. Every check reads
// the published snapshot and takes no lock; the rare administrative edits
// copy it, edit the copy and publish it.
type Authorizer struct {
	mu  sync.Mutex // serialises writers (update); readers never take it
	cur atomic.Pointer[state]
}

func newAuthorizer(st *state) *Authorizer {
	a := &Authorizer{}
	a.cur.Store(st)
	return a
}

// New creates an Authorizer with the system segment and the SystemUser
// administrator (with the given password).
func New(systemPassword string) *Authorizer {
	return newAuthorizer(&state{
		users: map[string]user{
			SystemUser: {passHash: sha256.Sum256([]byte(systemPassword)), admin: true, home: SystemSegment},
		},
		segments: map[object.SegmentID]segment{
			SystemSegment: {owner: SystemUser, world: Read},
		},
		nextSeg: 1,
	})
}

// update applies edit to a private copy of the current state and publishes
// the copy if edit succeeds.
func (a *Authorizer) update(edit func(st *state) error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.cur.Load().clone()
	if err := edit(st); err != nil {
		return err
	}
	a.cur.Store(st)
	return nil
}

// Version names one published snapshot of the tables. Every edit publishes
// a new snapshot, so two equal Versions answer every check the same.
type Version struct{ st *state }

// Version returns the current snapshot's name: one atomic load.
func (a *Authorizer) Version() Version { return Version{a.cur.Load()} }

// Authenticate verifies a name/password pair.
func (a *Authorizer) Authenticate(name, password string) error {
	u, ok := a.cur.Load().users[name]
	if !ok {
		return ErrNoUser
	}
	h := sha256.Sum256([]byte(password))
	if subtle.ConstantTimeCompare(h[:], u.passHash[:]) != 1 {
		return ErrNoUser
	}
	return nil
}

// CreateUser adds a user; only admins may call it (enforced by caller
// passing the acting user).
func (a *Authorizer) CreateUser(actor, name, password string) error {
	return a.update(func(st *state) error {
		if !st.users[actor].admin {
			return fmt.Errorf("%w: %s cannot create users", ErrDenied, actor)
		}
		if _, dup := st.users[name]; dup {
			return fmt.Errorf("auth: user %s already exists", name)
		}
		seg := st.nextSeg
		st.nextSeg++
		st.users[name] = user{passHash: sha256.Sum256([]byte(password)), home: seg}
		st.segments[seg] = segment{owner: name, world: None}
		return nil
	})
}

// CreateSegment adds a segment owned by actor, returning its id.
func (a *Authorizer) CreateSegment(actor string, world Privilege) (object.SegmentID, error) {
	var seg object.SegmentID
	err := a.update(func(st *state) error {
		if _, ok := st.users[actor]; !ok {
			return fmt.Errorf("%w: unknown user %s", ErrDenied, actor)
		}
		seg = st.nextSeg
		st.nextSeg++
		st.segments[seg] = segment{owner: actor, world: world}
		return nil
	})
	return seg, err
}

// ownedSegment returns seg for an edit by actor, who must own it or be an
// administrator.
func (st *state) ownedSegment(actor string, seg object.SegmentID) (segment, error) {
	s, ok := st.segments[seg]
	if !ok {
		return segment{}, fmt.Errorf("auth: no segment %d", seg)
	}
	if s.owner != actor && !st.users[actor].admin {
		return segment{}, fmt.Errorf("%w: %s does not own segment %d", ErrDenied, actor, seg)
	}
	return s, nil
}

// Grant sets a user's privilege on a segment. Only the segment owner or an
// admin may grant.
func (a *Authorizer) Grant(actor string, seg object.SegmentID, name string, p Privilege) error {
	return a.update(func(st *state) error {
		s, err := st.ownedSegment(actor, seg)
		if err != nil {
			return err
		}
		if _, ok := st.users[name]; !ok {
			return fmt.Errorf("auth: no user %s", name)
		}
		acl := make(map[string]Privilege, len(s.users)+1)
		for n, q := range s.users {
			acl[n] = q
		}
		acl[name] = p
		s.users = acl
		st.segments[seg] = s
		return nil
	})
}

// SetWorld sets a segment's world (default) privilege.
func (a *Authorizer) SetWorld(actor string, seg object.SegmentID, p Privilege) error {
	return a.update(func(st *state) error {
		s, err := st.ownedSegment(actor, seg)
		if err != nil {
			return err
		}
		s.world = p
		st.segments[seg] = s
		return nil
	})
}

// privilege computes the effective privilege of name on seg.
func (st *state) privilege(name string, seg object.SegmentID) Privilege {
	s, ok := st.segments[seg]
	if !ok {
		return None
	}
	if st.users[name].admin || s.owner == name {
		return Write
	}
	if p, ok := s.users[name]; ok {
		return p
	}
	return s.world
}

// CheckRead returns nil if name may read objects in seg.
func (a *Authorizer) CheckRead(name string, seg object.SegmentID) error {
	if a.cur.Load().privilege(name, seg) >= Read {
		return nil
	}
	return fmt.Errorf("%w: %s cannot read segment %d", ErrDenied, name, seg)
}

// CheckWrite returns nil if name may write objects in seg.
func (a *Authorizer) CheckWrite(name string, seg object.SegmentID) error {
	if a.cur.Load().privilege(name, seg) >= Write {
		return nil
	}
	return fmt.Errorf("%w: %s cannot write segment %d", ErrDenied, name, seg)
}

// HomeSegment returns the default segment for objects created by name.
func (a *Authorizer) HomeSegment(name string) (object.SegmentID, error) {
	u, ok := a.cur.Load().users[name]
	if !ok {
		return 0, ErrNoUser
	}
	return u.home, nil
}

// IsAdmin reports whether name is an administrator.
func (a *Authorizer) IsAdmin(name string) bool {
	return a.cur.Load().users[name].admin
}

// Users returns the known user names, sorted (for administrative listing).
func (a *Authorizer) Users() []string {
	st := a.cur.Load()
	out := make([]string, 0, len(st.users))
	for n := range st.users {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// State is the exportable authorization state, used by the database to
// persist users and segments as a versioned object.
type State struct {
	Users    []UserState
	Segments []SegmentState
	NextSeg  object.SegmentID
}

// UserState is one user's exportable record.
type UserState struct {
	Name  string
	Hash  [32]byte
	Admin bool
	Home  object.SegmentID
}

// SegmentState is one segment's exportable record.
type SegmentState struct {
	ID    object.SegmentID
	Owner string
	World Privilege
	ACL   []ACLEntry // ascending by User
}

// ACLEntry is one user's privilege on a segment.
type ACLEntry struct {
	User string
	Priv Privilege
}

// Export snapshots the authorization state for persistence. Every list is
// sorted: the state is gob-encoded into a stored object, so its bytes must
// be identical for identical authorization state (maps — both Go's and
// gob's — iterate in random order and may not leak into the encoding).
func (a *Authorizer) Export() State {
	cur := a.cur.Load()
	st := State{NextSeg: cur.nextSeg}
	for n, u := range cur.users {
		st.Users = append(st.Users, UserState{Name: n, Hash: u.passHash, Admin: u.admin, Home: u.home})
	}
	sort.Slice(st.Users, func(i, j int) bool { return st.Users[i].Name < st.Users[j].Name })
	for id, s := range cur.segments {
		acl := make([]ACLEntry, 0, len(s.users))
		for n, p := range s.users {
			acl = append(acl, ACLEntry{User: n, Priv: p})
		}
		sort.Slice(acl, func(i, j int) bool { return acl[i].User < acl[j].User })
		st.Segments = append(st.Segments, SegmentState{ID: id, Owner: s.owner, World: s.world, ACL: acl})
	}
	sort.Slice(st.Segments, func(i, j int) bool { return st.Segments[i].ID < st.Segments[j].ID })
	return st
}

// Restore rebuilds an Authorizer from exported state.
func Restore(st State) *Authorizer {
	cur := &state{
		users:    make(map[string]user, len(st.Users)),
		segments: make(map[object.SegmentID]segment, len(st.Segments)),
		nextSeg:  st.NextSeg,
	}
	for _, u := range st.Users {
		cur.users[u.Name] = user{passHash: u.Hash, admin: u.Admin, home: u.Home}
	}
	for _, s := range st.Segments {
		users := make(map[string]Privilege, len(s.ACL))
		for _, e := range s.ACL {
			users[e.User] = e.Priv
		}
		cur.segments[s.ID] = segment{owner: s.Owner, world: s.World, users: users}
	}
	return newAuthorizer(cur)
}
