package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/object"
)

// chunkBits sets the serial table's chunk size: chunk i holds the slots of
// serials [i<<chunkBits, (i+1)<<chunkBits).
const chunkBits = 10

type serialChunk [1 << chunkBits]atomic.Pointer[object.Object]

// serialTable is the committed-object cache, indexed by serial: a
// directory of fixed-size chunks of slots, published through one atomic
// pointer. A hit is three loads — directory, chunk, slot — with no
// hashing and no lock. A chunk is installed on the first store into its
// range, so a serial range that holds only transients costs nothing.
// Nothing is ever evicted.
type serialTable struct {
	dir atomic.Pointer[[]atomic.Pointer[serialChunk]]
	// growMu serialises chunk installs and directory growth, so a grow
	// copies every installed chunk; readers and stores into an installed
	// chunk never take it.
	growMu sync.Mutex
}

// load returns the object stored under serial, or nil.
func (t *serialTable) load(serial uint64) *object.Object {
	if c := t.chunk(serial); c != nil {
		return c[serial&(1<<chunkBits-1)].Load()
	}
	return nil
}

// chunk returns serial's chunk, or nil if none is installed yet.
func (t *serialTable) chunk(serial uint64) *serialChunk {
	d := t.dir.Load()
	if hi := serial >> chunkBits; d != nil && hi < uint64(len(*d)) {
		return (*d)[hi].Load()
	}
	return nil
}

// slot returns serial's slot, installing its chunk first if needed.
func (t *serialTable) slot(serial uint64) *atomic.Pointer[object.Object] {
	c := t.chunk(serial)
	if c == nil {
		c = t.install(serial >> chunkBits)
	}
	return &c[serial&(1<<chunkBits-1)]
}

// install returns directory entry hi's chunk, allocating it, and growing
// the directory to reach it, if no other store got there first.
func (t *serialTable) install(hi uint64) *serialChunk {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	d := t.dir.Load()
	if d == nil || hi >= uint64(len(*d)) {
		// Double, so filling the table serial by serial copies the
		// directory O(log n) times.
		var old []atomic.Pointer[serialChunk]
		if d != nil {
			old = *d
		}
		grown := make([]atomic.Pointer[serialChunk], max(hi+1, 2*uint64(len(old))))
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		t.dir.Store(&grown)
		d = &grown
	}
	if c := (*d)[hi].Load(); c != nil {
		return c
	}
	c := new(serialChunk)
	(*d)[hi].Store(c)
	return c
}

// loadOrStore stores ob under its serial unless a version is already
// there, and returns the version that stays.
func (t *serialTable) loadOrStore(ob *object.Object) *object.Object {
	p := t.slot(ob.OOP.Serial())
	if p.CompareAndSwap(nil, ob) {
		return ob
	}
	return p.Load()
}

// store makes ob the version stored under its serial.
func (t *serialTable) store(ob *object.Object) { t.slot(ob.OOP.Serial()).Store(ob) }
