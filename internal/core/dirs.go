package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/directory"
	"repro/internal/object"
	"repro/internal/oop"
	"repro/internal/store"
)

// maintained is one live directory plus the bookkeeping the Linker needs to
// keep it consistent: the current member states and the reverse dependency
// map from objects along key paths to the members whose keys they
// determine. The latter is the paper's "headache ... using a nested element
// as a discriminator" (§6) made explicit.
type maintained struct {
	dir     *directory.Directory
	members map[oop.OOP]memberInfo          // element name -> state
	depends map[uint64]map[oop.OOP]struct{} // chain-object serial -> element names
}

type memberInfo struct {
	member oop.OOP
	key    directory.Key
	chain  []oop.OOP // heap objects the key was computed through
}

func newMaintained(set oop.OOP, path []oop.OOP) *maintained {
	return &maintained{
		dir:     directory.New(set, path),
		members: make(map[oop.OOP]memberInfo),
		depends: make(map[uint64]map[oop.OOP]struct{}),
	}
}

// view reads the object graph in one database state. get must return
// committed (or freshly linked) objects; t selects the state.
type view struct {
	get func(oop.OOP) (*object.Object, error)
	t   oop.Time
}

func (v view) fetch(o, name oop.OOP) (oop.OOP, bool) {
	ob, err := v.get(o)
	if err != nil {
		return oop.Invalid, false
	}
	return ob.FetchAt(name, v.t)
}

// computeKey resolves the directory's key path from member and returns the
// decoded key plus the chain of heap objects the computation depended on.
func (db *DB) computeKey(member oop.OOP, path []oop.OOP, v view) (directory.Key, []oop.OOP) {
	var chain []oop.OOP
	val := member
	for _, p := range path {
		if !val.IsHeap() {
			val = oop.Nil
			break
		}
		chain = append(chain, val)
		next, ok := v.fetch(val, p)
		if !ok {
			next = oop.Nil
		}
		val = next
	}
	if val.IsHeap() {
		chain = append(chain, val)
	}
	return db.decodeKey(val, v), chain
}

// decodeKey turns a value into a self-contained index key.
func (db *DB) decodeKey(val oop.OOP, v view) directory.Key {
	switch {
	case val == oop.Nil || val == oop.Invalid:
		return directory.NilKey()
	case val == oop.True:
		return directory.BoolKey(true)
	case val == oop.False:
		return directory.BoolKey(false)
	case val.IsSmallInt():
		return directory.NumberKey(float64(val.Int()))
	case val.IsCharacter():
		return directory.CharKey(val.Char())
	}
	ob, err := v.get(val)
	if err != nil {
		return directory.OOPKey(val)
	}
	if ob.Format == object.FormatBytes {
		b, ok := ob.BytesAt(v.t)
		if !ok {
			return directory.NilKey()
		}
		if ob.Class == db.kernel.Float && len(b) == 8 {
			return directory.NumberKey(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		return directory.StringKey(string(b))
	}
	return directory.OOPKey(val)
}

// setMembersAt lists the set's element bindings (name -> member) at v.t,
// skipping the hidden alias counter and nil values.
func (db *DB) setMembersAt(set oop.OOP, v view) (map[oop.OOP]oop.OOP, error) {
	ob, err := v.get(set)
	if err != nil {
		return nil, err
	}
	out := make(map[oop.OOP]oop.OOP)
	for _, el := range ob.Elements() {
		if el.Name == db.wk.aliasCounter {
			continue
		}
		if val, ok := el.At(v.t); ok && val != oop.Nil {
			out[el.Name] = val
		}
	}
	return out, nil
}

// enter/leave/recompute keep members and depends consistent with the index.

func (m *maintained) addDeps(name oop.OOP, chain []oop.OOP) {
	for _, c := range chain {
		s := c.Serial()
		if m.depends[s] == nil {
			m.depends[s] = make(map[oop.OOP]struct{})
		}
		m.depends[s][name] = struct{}{}
	}
}

func (m *maintained) dropDeps(name oop.OOP, chain []oop.OOP) {
	for _, c := range chain {
		s := c.Serial()
		if set, ok := m.depends[s]; ok {
			delete(set, name)
			if len(set) == 0 {
				delete(m.depends, s)
			}
		}
	}
}

func (db *DB) dirEnter(m *maintained, name, member oop.OOP, v view, t oop.Time) {
	key, chain := db.computeKey(member, m.dir.Path, v)
	m.dir.Enter(key, name, member, t)
	m.members[name] = memberInfo{member: member, key: key, chain: chain}
	m.addDeps(name, chain)
}

func (db *DB) dirLeave(m *maintained, name oop.OOP, t oop.Time) error {
	mi, ok := m.members[name]
	if !ok {
		return nil
	}
	if err := m.dir.Leave(mi.key, name, mi.member, t); err != nil {
		return err
	}
	m.dropDeps(name, mi.chain)
	delete(m.members, name)
	return nil
}

func (db *DB) dirRecompute(m *maintained, name oop.OOP, v view, t oop.Time) error {
	mi, ok := m.members[name]
	if !ok {
		return nil
	}
	key, chain := db.computeKey(mi.member, m.dir.Path, v)
	if directory.Compare(key, mi.key) != 0 {
		if err := m.dir.Move(mi.key, key, name, mi.member, t); err != nil {
			return err
		}
	}
	m.dropDeps(name, mi.chain)
	mi.key, mi.chain = key, chain
	m.members[name] = mi
	m.addDeps(name, chain)
	return nil
}

// syncMembership diffs the directory's recorded members against the actual
// bindings in state v and applies enters/leaves/changes at time t.
func (db *DB) syncMembership(m *maintained, v view, t oop.Time) error {
	actual, err := db.setMembersAt(m.dir.Set, v)
	if err != nil {
		return err
	}
	// Leaves and enters run in sorted name order so the B-tree takes the
	// same shape — and equal-key members keep the same relative order in
	// lookups — no matter how the maps iterate.
	for _, name := range sortedNames(m.members) {
		val, still := actual[name]
		if !still || val != m.members[name].member {
			if err := db.dirLeave(m, name, t); err != nil {
				return err
			}
		}
	}
	entering := make([]oop.OOP, 0, len(actual))
	for name := range actual {
		entering = append(entering, name)
	}
	sort.Slice(entering, func(i, j int) bool { return entering[i] < entering[j] })
	for _, name := range entering {
		if _, have := m.members[name]; !have {
			db.dirEnter(m, name, actual[name], v, t)
		}
	}
	return nil
}

// sortedNames returns the member element names in ascending OOP order.
func sortedNames(members map[oop.OOP]memberInfo) []oop.OOP {
	names := make([]oop.OOP, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// loadLocked loads a committed object while db.mu is held.
func (db *DB) loadLocked(o oop.OOP) (*object.Object, error) {
	if ob := db.cache.load(o.Serial()); ob != nil {
		return ob, nil
	}
	ob, err := db.st.Load(o)
	if err != nil {
		return nil, err
	}
	return db.cache.loadOrStore(ob), nil
}

// maintainDirectoriesLocked is the Linker's directory pass, run just after
// a commit's objects land in the cache (db.mu held, commit lock held).
func (db *DB) maintainDirectoriesLocked(ws map[uint64]*object.Object, commit oop.Time) error {
	if len(db.dirs) == 0 {
		return nil
	}
	v := view{get: db.loadLocked, t: commit}
	for _, m := range db.dirs {
		if _, touched := ws[m.dir.Set.Serial()]; touched {
			if err := db.syncMembership(m, v, commit); err != nil {
				return err
			}
		}
		// Members whose key path runs through a written object, in sorted
		// order for deterministic index maintenance.
		var affected []oop.OOP
		for serial := range ws {
			for name := range m.depends[serial] {
				affected = append(affected, name)
			}
		}
		sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
		for _, name := range affected {
			if err := db.dirRecompute(m, name, v, commit); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectTimes gathers every transaction time at which the key of any
// member of set (along path) could have changed, for history replay.
func (db *DB) collectTimes(set oop.OOP, path []oop.OOP, times map[oop.Time]struct{}) error {
	ob, err := db.loadLocked(set)
	if err != nil {
		return err
	}
	for _, el := range ob.Elements() {
		if el.Name == db.wk.aliasCounter {
			continue
		}
		for _, a := range el.Hist {
			times[a.T] = struct{}{}
			if a.Value.IsHeap() {
				if err := db.collectChainTimes(a.Value, path, times, map[uint64]bool{}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (db *DB) collectChainTimes(o oop.OOP, path []oop.OOP, times map[oop.Time]struct{}, seen map[uint64]bool) error {
	if seen[o.Serial()] {
		return nil
	}
	seen[o.Serial()] = true
	ob, err := db.loadLocked(o)
	if err != nil {
		// The object may be archived or unreachable; its key decodes as
		// identity, which never changes.
		return nil
	}
	if len(path) == 0 {
		// Terminal key object: byte-version changes re-key the member.
		for _, bv := range ob.ByteVersions() {
			times[bv.T] = struct{}{}
		}
		return nil
	}
	if e := ob.Element(path[0]); e != nil {
		for _, a := range e.Hist {
			times[a.T] = struct{}{}
			if a.Value.IsHeap() {
				if err := db.collectChainTimes(a.Value, path[1:], times, seen); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rebuildDirectory reconstructs a directory — including every historical
// interval — by replaying the committed history of the indexed set and the
// objects along its key paths. Directories are rebuilt on database open and
// on index creation; the resulting index answers lookups at any time dial.
func (db *DB) rebuildDirectory(set oop.OOP, path []oop.OOP) (*maintained, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	m := newMaintained(set, path)
	times := map[oop.Time]struct{}{}
	if err := db.collectTimes(set, path, times); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return m, nil
		}
		return nil, err
	}
	ordered := make([]oop.Time, 0, len(times))
	for t := range times {
		ordered = append(ordered, t)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, t := range ordered {
		v := view{get: db.loadLocked, t: t}
		if err := db.syncMembership(m, v, t); err != nil {
			return nil, err
		}
		// Keys of continuing members may have changed at t.
		for _, name := range sortedNames(m.members) {
			if err := db.dirRecompute(m, name, v, t); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// CreateIndex registers a directory on set keyed by the element-name path
// (the OPAL storage "hint", §6), builds it from committed history, and
// persists the definition.
func (s *Session) CreateIndex(set oop.OOP, path []string) error {
	if len(path) == 0 {
		return fmt.Errorf("core: index path must have at least one element name")
	}
	syms := make([]oop.OOP, len(path))
	for i, p := range path {
		syms[i] = s.db.SymbolFor(p)
	}
	s.db.mu.RLock()
	for _, m := range s.db.dirs {
		if m.dir.Set == set && pathEqual(m.dir.Path, syms) {
			s.db.mu.RUnlock()
			return fmt.Errorf("core: index on %v by %v already exists", set, path)
		}
	}
	s.db.mu.RUnlock()
	m, err := s.db.rebuildDirectory(set, syms)
	if err != nil {
		return err
	}
	s.db.mu.Lock()
	s.db.dirs = append(s.db.dirs, m)
	s.db.mu.Unlock()
	return s.db.persistDirectories()
}

func pathEqual(a, b []oop.OOP) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FindIndex returns the directory on set whose path matches, if one is
// maintained (used by the query optimizer).
func (s *Session) FindIndex(set oop.OOP, path []string) (*directory.Directory, bool) {
	syms := make([]oop.OOP, len(path))
	for i, p := range path {
		syms[i] = s.db.SymbolFor(p)
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	for _, m := range s.db.dirs {
		if m.dir.Set == set && pathEqual(m.dir.Path, syms) {
			return m.dir, true
		}
	}
	return nil, false
}

// ErrNoDirectory reports an index operation against a set/path pair with no
// maintained directory — for example one dropped between planning and
// execution. Callers must surface it rather than treat it as zero rows.
var ErrNoDirectory = errors.New("core: no maintained directory for set/path")

// IndexLookupFunc streams the members of set bound under key to fn through
// a maintained directory, in directory entry order. It returns
// ErrNoDirectory (wrapped) when no directory covers the set/path pair, the
// error a scan would meet reading the set (such as a denied read), and
// otherwise the first error from fn.
func (s *Session) IndexLookupFunc(set oop.OOP, path []string, key directory.Key, fn func(oop.OOP) error) error {
	d, ok := s.FindIndex(set, path)
	if !ok {
		return fmt.Errorf("%w: %v by %v", ErrNoDirectory, set, path)
	}
	r, err := s.see(set, oop.TimeNow, true)
	if err != nil {
		return err
	}
	s.db.met.indexLookups.Inc()
	s.db.met.cursorOpens.Inc()
	return d.LookupFunc(key, r.t, func(e directory.Entry) error {
		s.db.met.cursorMembers.Inc()
		return fn(e.Member)
	})
}

// IndexRangeFunc streams members with keys in [lo,hi] bounds (nil =
// unbounded) to fn in ascending key order. It returns ErrNoDirectory
// (wrapped) when no directory covers the set/path pair, the error a scan
// would meet reading the set (such as a denied read), and otherwise the
// first error from fn.
func (s *Session) IndexRangeFunc(set oop.OOP, path []string, lo, hi *directory.Key, loInc, hiInc bool, fn func(oop.OOP) error) error {
	d, ok := s.FindIndex(set, path)
	if !ok {
		return fmt.Errorf("%w: %v by %v", ErrNoDirectory, set, path)
	}
	r, err := s.see(set, oop.TimeNow, true)
	if err != nil {
		return err
	}
	s.db.met.indexLookups.Inc()
	s.db.met.cursorOpens.Inc()
	return d.RangeFunc(lo, hi, loInc, hiInc, r.t, func(e directory.Entry) error {
		s.db.met.cursorMembers.Inc()
		return fn(e.Member)
	})
}

// DropIndex removes the maintained directory on set keyed by path and
// persists the change. In-flight plans that chose the directory fail their
// next probe with ErrNoDirectory instead of silently reading zero rows.
func (s *Session) DropIndex(set oop.OOP, path []string) error {
	syms := make([]oop.OOP, len(path))
	for i, p := range path {
		syms[i] = s.db.SymbolFor(p)
	}
	s.db.mu.Lock()
	found := false
	kept := make([]*maintained, 0, len(s.db.dirs))
	for _, m := range s.db.dirs {
		if m.dir.Set == set && pathEqual(m.dir.Path, syms) {
			found = true
			continue
		}
		kept = append(kept, m)
	}
	s.db.dirs = kept
	s.db.mu.Unlock()
	if !found {
		return fmt.Errorf("%w: %v by %v", ErrNoDirectory, set, path)
	}
	return s.db.persistDirectories()
}

// --- Out-of-band system state persistence ---

// internalApply durably rewrites system bookkeeping objects (auth state,
// directory definitions) without consuming a transaction time.
func (db *DB) internalApply(objs []*object.Object) error {
	if err := db.st.Apply(store.Commit{
		Objects:    objs,
		NextSerial: db.serialHighWater(),
		Time:       db.txm.LastCommitted(),
	}); err != nil {
		return err
	}
	db.mu.Lock()
	for _, ob := range objs {
		db.publish(ob)
	}
	db.mu.Unlock()
	return nil
}

func (db *DB) systemByteObject(slot int64) (*object.Object, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	root, err := db.loadLocked(db.sysRoot)
	if err != nil {
		return nil, err
	}
	o, ok := root.Fetch(oop.MustInt(slot))
	if !ok {
		return nil, fmt.Errorf("core: system root slot %d missing", slot)
	}
	ob, err := db.loadLocked(o)
	if err != nil {
		return nil, err
	}
	return ob.Clone(), nil
}

// persistAuth rewrites the durable authorization state.
func (db *DB) persistAuth() error {
	ob, err := db.systemByteObject(rootSlotAuth)
	if err != nil {
		return err
	}
	t := db.txm.LastCommitted()
	if err := ob.SetBytes(t, gobEncode(db.auth.Export())); err != nil {
		return err
	}
	return db.internalApply([]*object.Object{ob})
}

// persistDirectories rewrites the durable directory definitions.
func (db *DB) persistDirectories() error {
	db.mu.RLock()
	defs := make([]dirDefGob, 0, len(db.dirs))
	for _, m := range db.dirs {
		d := dirDefGob{Set: m.dir.Set.Serial()}
		for _, p := range m.dir.Path {
			d.Path = append(d.Path, p.Serial())
		}
		defs = append(defs, d)
	}
	db.mu.RUnlock()
	ob, err := db.systemByteObject(rootSlotDirs)
	if err != nil {
		return err
	}
	t := db.txm.LastCommitted()
	if err := ob.SetBytes(t, gobEncode(defs)); err != nil {
		return err
	}
	return db.internalApply([]*object.Object{ob})
}
