// Package core is the paper's primary contribution assembled: the GemStone
// Object Manager. It ties the track store, the optimistic Transaction
// Manager, the Directory Manager and authorization together under a
// session-based interface with per-element object history, a time dial and
// entity identity.
//
// Each session has "its own Object Manager with a private object space"
// (paper §6): a copy-on-write workspace layered over the shared committed
// store. Reads are served from the workspace first and otherwise from the
// committed object's history *at the session's snapshot time* — the
// temporal model doubles as the concurrency snapshot, the synergy the paper
// credits to Reed ("storing transaction time is useful for synchronizing
// concurrent transactions", §5.3.1).
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/auth"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oop"
	"repro/internal/store"
	"repro/internal/txn"
)

// Options configures a database.
type Options struct {
	Store          store.Options
	SystemPassword string // password for SystemUser; default "swordfish"
}

// Kernel holds the OOPs of the classes the Object Manager itself needs.
// They are created at bootstrap and re-resolved from the globals on open.
type Kernel struct {
	Object, Class, UndefinedObject                oop.OOP
	Boolean, TrueClass, FalseClass                oop.OOP
	Magnitude, Character, Number                  oop.OOP
	SmallInteger, Float                           oop.OOP
	Collection, String, Symbol                    oop.OOP
	Array, OrderedCollection, Set, Bag            oop.OOP
	Dictionary, Association                       oop.OOP
	Block, CompiledMethod, SystemDictionary, View oop.OOP
}

// Well-known element-name symbols used by the Object Manager itself.
type wellKnown struct {
	name, superclass, instVarNames, format, methods oop.OOP
	classComment                                    oop.OOP
	key, value                                      oop.OOP
	aliasCounter                                    oop.OOP
	globals, symbols, directories, authState        oop.OOP
}

// DB is an open GemStone database.
type DB struct {
	st   *store.Store
	txm  *txn.Manager
	auth *auth.Authorizer

	// The shared read path takes no lock: cache, symByName and symByOOP
	// only ever hold immutable values (a commit publishes a fresh object
	// under a serial rather than editing one; a symbol is never re-bound),
	// so a hit is loads only. Writers still serialise on mu: commit
	// publish, directory maintenance and symbol interning all store under
	// it.
	mu      sync.RWMutex // guards newSyms, dirs
	newSyms []oop.OOP    // interned but not yet in the durable registry

	cache     serialTable // committed and immutable objects, by serial
	symByName sync.Map    // string -> oop.OOP
	symByOOP  sync.Map    // oop.OOP -> string

	serialMu   sync.Mutex // guards nextSerial
	nextSerial uint64

	sysRoot oop.OOP          // the SystemRoot object referenced by the superblock
	globals oop.OOP          // SystemDictionary of named globals (classes, World)
	pubSeg  object.SegmentID // the published (world-writable) segment
	symReg  oop.OOP          // durable symbol registry (indexed object)
	kernel  Kernel
	wk      wellKnown
	dirs    []*maintained // maintained directories

	obs *obs.Registry
	met coreMetrics
}

// coreMetrics counts the §4.3 access-path split: associative lookups that
// went through a maintained index versus full membership scans — plus the
// streaming-executor cursor traffic layered on top of those access paths.
type coreMetrics struct {
	indexLookups *obs.Counter
	scans        *obs.Counter

	cursorOpens   *obs.Counter // streaming cursors opened (set + index)
	cursorMembers *obs.Counter // members emitted through streaming cursors
	memberCounts  *obs.Counter // O(1)-per-element MemberCount planner probes
}

// Open opens or bootstraps the database under dir.
func Open(dir string, opts Options) (*DB, error) {
	if opts.SystemPassword == "" {
		opts.SystemPassword = "swordfish"
	}
	reg := obs.NewRegistry()
	opts.Store.Obs = reg
	st, err := store.Open(dir, opts.Store)
	if err != nil {
		return nil, err
	}
	meta := st.Meta()
	db := &DB{
		st:         st,
		nextSerial: meta.NextSerial,
		obs:        reg,
		met: coreMetrics{
			indexLookups:  reg.Counter("directory.index.lookups"),
			scans:         reg.Counter("directory.scans"),
			cursorOpens:   reg.Counter("query.cursor.opens"),
			cursorMembers: reg.Counter("query.cursor.members"),
			memberCounts:  reg.Counter("query.member.counts"),
		},
	}
	// The transaction manager hands validated commit groups back to the
	// DB's Linker (applyCommitGroup) for one shared safe-write per group.
	db.txm = txn.NewManager(meta.LastTime, db.applyCommitGroup)
	db.txm.Instrument(reg)
	if meta.Root == oop.Invalid {
		if err := db.bootstrap(opts.SystemPassword); err != nil {
			st.Close()
			return nil, fmt.Errorf("core: bootstrap: %w", err)
		}
		return db, nil
	}
	if err := db.reload(); err != nil {
		st.Close()
		return nil, fmt.Errorf("core: reload: %w", err)
	}
	return db, nil
}

// Close releases the database.
func (db *DB) Close() error { return db.st.Close() }

// Kernel returns the kernel class OOPs.
func (db *DB) Kernel() Kernel { return db.kernel }

// ClassSymbols are the element names of a class object, interned when the
// database opens. The interpreter reads them on every send.
type ClassSymbols struct {
	Name, Superclass, InstVarNames, Methods oop.OOP
}

// ClassSymbols returns the interned element names of class objects.
func (db *DB) ClassSymbols() ClassSymbols {
	return ClassSymbols{Name: db.wk.name, Superclass: db.wk.superclass,
		InstVarNames: db.wk.instVarNames, Methods: db.wk.methods}
}

// Store exposes the underlying track store (statistics, damage injection).
func (db *DB) Store() *store.Store { return db.st }

// TxnManager exposes the transaction manager (statistics).
func (db *DB) TxnManager() *txn.Manager { return db.txm }

// Auth exposes the authorization engine.
func (db *DB) Auth() *auth.Authorizer { return db.auth }

// Obs returns the database's metrics registry.
func (db *DB) Obs() *obs.Registry { return db.obs }

// allocSerial hands out a fresh object serial.
func (db *DB) allocSerial() uint64 {
	db.serialMu.Lock()
	defer db.serialMu.Unlock()
	s := db.nextSerial
	db.nextSerial++
	return s
}

func (db *DB) serialHighWater() uint64 {
	db.serialMu.Lock()
	defer db.serialMu.Unlock()
	return db.nextSerial
}

// publish makes ob, a freshly committed version, the one readers load.
// Writers call it with db.mu held, so publishes never interleave.
func (db *DB) publish(ob *object.Object) { db.cache.store(ob) }

// loadCommitted returns the committed version of an object, via the shared
// cache. The returned object is shared: callers must not mutate it. A hit
// takes no lock.
func (db *DB) loadCommitted(o oop.OOP) (*object.Object, error) {
	if ob := db.cache.load(o.Serial()); ob != nil {
		return ob, nil
	}
	ob, err := db.st.Load(o)
	if err != nil {
		// Interned-but-not-yet-flushed symbols are readable immediately;
		// synthesize the object the next commit will write.
		name, isSym := db.SymbolName(o)
		if !isSym {
			return nil, err
		}
		ob = object.New(o, db.kernel.Symbol, auth.SystemSegment, object.FormatBytes)
		if serr := ob.SetBytes(0, []byte(name)); serr != nil {
			return nil, err
		}
	}
	// Another loader or a commit's publish may have got there first: keep
	// the version that stays.
	return db.cache.loadOrStore(ob), nil
}

// --- Symbols ---

// SymbolFor interns a symbol, creating its durable object on first use.
// Symbols are immutable and shared across sessions and transactions; new
// ones are appended to the durable registry by the next commit (or Flush).
// A name already interned is found without a lock.
func (db *DB) SymbolFor(name string) oop.OOP {
	if o, ok := db.symByName.Load(name); ok {
		return o.(oop.OOP)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.symbolLocked(name)
}

func (db *DB) symbolLocked(name string) oop.OOP {
	if o, ok := db.symByName.Load(name); ok {
		return o.(oop.OOP)
	}
	o := oop.FromSerial(db.allocSerial())
	// OOP -> name first: whoever finds the OOP by name can resolve it.
	db.symByOOP.Store(o, name)
	db.symByName.Store(name, o)
	db.newSyms = append(db.newSyms, o)
	return o
}

// SymbolName resolves a symbol OOP to its string, without a lock.
func (db *DB) SymbolName(o oop.OOP) (string, bool) {
	s, ok := db.symByOOP.Load(o)
	if !ok {
		return "", false
	}
	return s.(string), true
}

// takePendingSymbols drains the not-yet-durable symbols as objects to add
// to the next commit batch, plus the updated registry object. Called with
// db.mu held by the committing session (via the Linker).
func (db *DB) takePendingSymbolsLocked() []*object.Object {
	if len(db.newSyms) == 0 {
		return nil
	}
	var out []*object.Object
	reg, err := db.loadLocked(db.symReg)
	if err != nil {
		panic(fmt.Sprintf("core: symbol registry unloadable: %v", err))
	}
	reg = reg.Clone()
	n := reg.Len()
	for i, symOOP := range db.newSyms {
		name, _ := db.SymbolName(symOOP)
		symObj := object.New(symOOP, db.kernel.Symbol, auth.SystemSegment, object.FormatBytes)
		// Symbols are timeless: their payload exists "from the beginning".
		if err := symObj.SetBytes(0, []byte(name)); err != nil {
			panic(err)
		}
		out = append(out, symObj)
		idx, _ := oop.FromInt(int64(n + i + 1))
		if err := reg.Store(idx, 0, symOOP); err != nil {
			panic(err)
		}
	}
	out = append(out, reg)
	db.newSyms = nil
	return out
}

// --- Persistence of auth and directory definitions ---

type dirDefGob struct {
	Set  uint64
	Path []uint64 // symbol serials
}

func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("core: gob encode: %v", err))
	}
	return buf.Bytes()
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
