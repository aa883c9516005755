// Package store is the secondary-storage half of the Object Manager
// (paper §6): the Track Manager (whole-track replicated I/O), the Boxer
// (fitting serialized objects into tracks), the Commit Manager (atomic
// "safe writing" of track groups via alternating superblocks), and the
// global object table mapping OOP serials to track locations.
//
// Commits are shadow-paged: data tracks, object-table pages and the table
// directory are always written to freshly allocated tracks, and the commit
// becomes visible only when the alternate superblock — carrying the new
// epoch, table directory location, root, transaction time and serial
// high-water — is written. A crash at any earlier point leaves the previous
// superblock, and therefore the previous database state, fully intact:
// "all the tracks in the group get written, or none get written" (§6).
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oop"
)

// Options configures a Store.
type Options struct {
	TrackSize   int // bytes per track; default 8192
	Replicas    int // replica files; default 1
	CacheTracks int // in-memory track cache capacity; default 256

	// WriteQuorum is the minimum number of replica arms a write (and sync)
	// must reach for a commit to succeed; arms that fail are degraded and
	// skipped rather than poisoning the commit. Default 1; clamped to
	// [1, Replicas].
	WriteQuorum int

	// OpenReplica, when non-nil, supplies each replica arm's device in
	// place of the plain os.File opener — the hook the fault-injection
	// tests and availability experiments use to wrap arms with
	// internal/iofault schedules.
	OpenReplica OpenReplicaFunc

	// Obs, when non-nil, receives the store's instruments (track I/O,
	// cache hits, replica fallbacks, Apply latency). Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry

	// FailPoint, when non-nil, is consulted at each named step of the
	// commit protocol. Returning an error simulates a crash at that step:
	// the commit stops immediately with partial writes on disk. Used by the
	// recovery experiments (C6).
	FailPoint func(step string) error
}

func (o Options) withDefaults() Options {
	if o.TrackSize == 0 {
		o.TrackSize = 8192
	}
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	if o.CacheTracks == 0 {
		o.CacheTracks = 256
	}
	return o
}

// Meta is the durable database metadata carried by the superblock.
type Meta struct {
	Epoch      uint64   // commit counter; highest valid superblock wins
	LastTime   oop.Time // latest committed transaction time
	NextSerial uint64   // OOP serial high-water mark
	Root       oop.OOP  // the distinguished root object ("World")
}

// Locator is an object-table entry: where an object record lives.
type Locator struct {
	Track  uint32
	Offset uint32
	Length uint32
	Flags  uint32
}

const (
	locatorLen   = 16
	flagArchived = 1 // moved to offline media by an administrator (§6)
)

// ErrNotFound reports a serial with no object-table entry.
var ErrNotFound = errors.New("store: object not found")

// ErrArchived reports an object moved to offline media.
var ErrArchived = errors.New("store: object archived to offline media")

// ErrCrashed is wrapped by commit errors produced by an injected FailPoint.
var ErrCrashed = errors.New("store: simulated crash")

// Store is the persistent object repository.
type Store struct {
	mu    sync.Mutex // guards meta, super, pageTracks, pageCache, archive, dirTrackPending
	tm    *TrackManager
	opts  Options
	meta  Meta
	super uint32 // track number of the *next* superblock slot to write (0 or 1)

	pageTracks      []uint32          // table directory: page index -> track
	pageCache       map[int][]Locator // parsed object-table pages
	archive         map[uint64][]byte // offline media simulation: serial -> record
	dirTrackPending uint32            // directory chain head for the superblock being written
	entriesPerPage  int

	scratch  applyScratch // commit-path slabs, reused across Applies under mu
	pagePool [][]Locator  // recycled object-table pages (COW scratch)

	met storeMetrics
}

// applyScratch holds the commit hot path's reusable buffers. Everything
// here is owned by Apply and only valid under s.mu; no buffer may escape
// except by the documented handoffs — committed COW pages move into
// pageCache (and the pages they replace come back to the pool), and the
// superseded table directory becomes the next commit's directory scratch.
// See DESIGN.md "Commit pipeline" for the ownership rules, which
// TestReadTrackReturnsPrivateCopy and TestTrackPoolReadersNeverSeeRecycledBytes
// pin.
type applyScratch struct {
	buf        []byte       // boxer encode slab, presized by EncodedSize
	places     []placed     // where each record landed in buf
	order      []int        // places indexes in ascending-serial order
	writes     []TrackWrite // write batch handed to WriteRun
	pageTracks []uint32     // next table directory, double-buffered with s.pageTracks
	pageOrder  []int        // dirtyPages indexes in ascending-page order
	dirtyPages []cowPage    // COW'd table pages, in creation order
	dirtyAt    map[int]int  // page index -> position in dirtyPages
	img        []byte       // encode slab for table pages + directory chain
	superBuf   []byte       // superblock encode buffer
}

// placed records where one serialized object landed in the encode slab.
type placed struct {
	serial uint64
	off    int
	length int
}

// cowPage is one copy-on-write object-table page awaiting publication.
type cowPage struct {
	idx  int
	page []Locator
}

// pagePoolCap bounds the recycled-page pool; beyond it pages are dropped
// to the collector rather than pinned.
const pagePoolCap = 64

// takePage pops a recycled page of length n from the pool or allocates a
// fresh one. The second result reports whether the pool served it. Free
// function, same reasoning as popTrack: the loan discipline lives at the
// call sites.
func takePage(pool *[][]Locator, n int) ([]Locator, bool) {
	for len(*pool) > 0 {
		last := len(*pool) - 1
		p := (*pool)[last]
		(*pool)[last] = nil
		*pool = (*pool)[:last]
		if len(p) == n {
			return p, true
		}
	}
	return make([]Locator, n), false
}

// putPage returns a page to the pool, dropping it when the pool is full.
func putPage(pool *[][]Locator, page []Locator) {
	if page == nil || len(*pool) >= pagePoolCap {
		return
	}
	*pool = append(*pool, page)
}

// storeMetrics holds the commit-path instruments. Atomic instruments, not
// guarded state: recording never needs s.mu.
type storeMetrics struct {
	applies    *obs.Counter   // Apply calls that reached the superblock flip
	degraded   *obs.Counter   // successful applies while an arm was degraded
	applyNS    *obs.Histogram // whole Apply latency, boxer through flip
	slabReuses *obs.Counter   // commit-path slabs served by reuse (shared with TrackManager)
	slabGrows  *obs.Counter   // commit-path slabs that had to (re)allocate
}

// Commit is one atomic batch of changes.
type Commit struct {
	Objects    []*object.Object // full current state of every written object
	Root       oop.OOP          // new root, or Invalid to keep current
	NextSerial uint64           // serial high-water after this commit
	Time       oop.Time         // the assigned transaction time

	// ArchiveSerials marks these serials as moved to offline media without
	// rewriting their records (administrative archival, §6).
	ArchiveSerials []uint64
}

// Open opens or creates a database under dir.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	tm, err := NewTrackManager(dir, opts.TrackSize, opts.Replicas, opts.CacheTracks, opts.WriteQuorum, opts.OpenReplica)
	if err != nil {
		return nil, err
	}
	s := &Store{
		tm:        tm,
		opts:      opts,
		pageCache: make(map[int][]Locator),
		archive:   make(map[uint64][]byte),
	}
	s.entriesPerPage = tm.PayloadSize() / locatorLen
	s.met = storeMetrics{
		applies:    opts.Obs.Counter("store.applies"),
		degraded:   opts.Obs.Counter("store.commits.degraded"),
		applyNS:    opts.Obs.Histogram("store.apply.ns", obs.LatencyBounds),
		slabReuses: opts.Obs.Counter("store.slab.reuses"),
		slabGrows:  opts.Obs.Counter("store.slab.grows"),
	}
	tm.instrument(opts.Obs)
	// No other goroutine can reach a store that Open has not returned, but
	// the helpers below touch guarded state, so take the lock anyway and
	// keep the locking discipline uniform.
	s.mu.Lock()
	defer s.mu.Unlock()
	if tm.Tracks() == 0 {
		if err := s.initializeLocked(); err != nil {
			tm.Close()
			return nil, err
		}
		return s, nil
	}
	if err := s.recoverLocked(); err != nil {
		tm.Close()
		return nil, err
	}
	return s, nil
}

// initialize lays out a fresh database: two superblock tracks and an empty
// table.
func (s *Store) initializeLocked() error {
	s.tm.Allocate(2) // tracks 0 and 1: the alternating superblock slots
	s.meta = Meta{Epoch: 1, LastTime: 0, NextSerial: 1, Root: oop.Invalid}
	s.super = 1 // epoch 1 goes to slot 0; writeSuper flips from s.super
	if err := s.writeSuperblockLocked(); err != nil {
		return err
	}
	return s.tm.Sync()
}

// Superblock payload layout:
//
//	crcLen-prefixed region:
//	magic u32 | epoch u64 | lastTime u64 | nextSerial u64 | root u64 |
//	nTracks u32 | nPages u32 | dirTrack u32 (first directory track; 0 none)
//	| crc u32 at fixed tail of region
const superMagic = 0x50555347                          // "GSUP"
const superLen = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 // ... + trackSize + crc

func (s *Store) encodeSuperblockLocked() []byte {
	// The returned buffer is the reusable superblock slab: WriteTrack copies
	// it into the track-image scratch before any I/O, so handing it out is
	// a loan that ends when writeSuperblockLocked returns.
	if cap(s.scratch.superBuf) < superLen {
		s.scratch.superBuf = make([]byte, superLen)
	}
	b := s.scratch.superBuf[:superLen]
	putU32(b[0:], superMagic)
	putU64(b[4:], s.meta.Epoch)
	putU64(b[12:], uint64(s.meta.LastTime))
	putU64(b[20:], s.meta.NextSerial)
	putU64(b[28:], uint64(s.meta.Root))
	putU32(b[36:], s.tm.Tracks())
	putU32(b[40:], uint32(len(s.pageTracks)))
	dirTrack := uint32(0)
	if len(s.pageTracks) > 0 {
		dirTrack = s.dirTrackPending
	}
	putU32(b[44:], dirTrack)
	putU32(b[48:], uint32(s.opts.TrackSize))
	putU32(b[52:], crc32.ChecksumIEEE(b[:52]))
	return b
}

func (s *Store) writeSuperblockLocked() error {
	slot := 1 - s.super // alternate
	if err := s.tm.WriteTrack(slot, s.encodeSuperblockLocked()); err != nil {
		return err
	}
	if err := s.tm.Sync(); err != nil {
		return err
	}
	s.super = slot
	return nil
}

type superblock struct {
	meta     Meta
	nTracks  uint32
	nPages   uint32
	dirTrack uint32
	slot     uint32
}

func parseSuperblock(b []byte, slot uint32) (superblock, bool) {
	if len(b) < superLen || getU32(b[0:]) != superMagic {
		return superblock{}, false
	}
	if crc32.ChecksumIEEE(b[:52]) != getU32(b[52:]) {
		return superblock{}, false
	}
	return superblock{
		meta: Meta{
			Epoch:      getU64(b[4:]),
			LastTime:   oop.Time(getU64(b[12:])),
			NextSerial: getU64(b[20:]),
			Root:       oop.OOP(getU64(b[28:])),
		},
		nTracks:  getU32(b[36:]),
		nPages:   getU32(b[40:]),
		dirTrack: getU32(b[44:]),
		slot:     slot,
	}, true
}

// recover selects the newest valid superblock and rebuilds the table
// directory from it. This is the entire crash-recovery procedure: shadow
// paging means there is no log to replay.
//
// Both slots of EVERY arm are consulted, not just the first arm that
// parses: an arm that sat degraded while commits continued holds a stale
// superblock whose tracks still carry valid checksums, so letting arm 0
// answer first could silently roll the database back. The highest epoch
// anywhere wins, and any arm whose own best superblock lags it is
// degraded on the spot — its checksums cannot be trusted to mean
// "current", only Rebuild reinstates it.
func (s *Store) recoverLocked() error {
	nArms := s.tm.Replicas()
	var best superblock
	found := false
	armEpoch := make([]uint64, nArms)
	armValid := make([]bool, nArms)
	for ri := 0; ri < nArms; ri++ {
		for slot := uint32(0); slot < 2; slot++ {
			payload, err := s.tm.ReadTrackReplica(ri, slot)
			if err != nil {
				continue
			}
			sb, ok := parseSuperblock(payload, slot)
			if !ok {
				continue
			}
			if !armValid[ri] || sb.meta.Epoch > armEpoch[ri] {
				armEpoch[ri] = sb.meta.Epoch
				armValid[ri] = true
			}
			if !found || sb.meta.Epoch > best.meta.Epoch {
				best, found = sb, true
			}
		}
	}
	if !found {
		// A common cause is opening with a different track size than the
		// database was created with: the superblock sits at a fixed offset,
		// so read it raw to produce an actionable error.
		if stored, ok := s.probeStoredTrackSize(); ok && stored != uint32(s.opts.TrackSize) {
			return fmt.Errorf("store: database was created with track size %d, opened with %d", stored, s.opts.TrackSize)
		}
		return errors.New("store: no valid superblock; database unrecoverable")
	}
	s.meta = best.meta
	s.super = best.slot
	for ri := 0; ri < nArms; ri++ {
		if !armValid[ri] || armEpoch[ri] < best.meta.Epoch {
			_ = s.tm.DegradeReplica(ri, fmt.Sprintf("store: superblock epoch %d behind committed %d; arm missed safe-writes", armEpoch[ri], best.meta.Epoch))
		}
	}
	// Trust the committed high-water mark, not the file size: tracks past it
	// are debris from an interrupted commit and may be overwritten.
	s.tm.mu.Lock()
	s.tm.nTracks = best.nTracks
	s.tm.mu.Unlock()
	s.pageTracks = nil
	s.pageCache = make(map[int][]Locator)
	if best.nPages > 0 {
		tracks, err := s.readDirectoryChain(best.dirTrack, int(best.nPages))
		if err != nil {
			return err
		}
		s.pageTracks = tracks
	}
	return nil
}

// Directory chain track layout: count u32 | next u32 | count page-track u32s.
func (s *Store) readDirectoryChain(first uint32, nPages int) ([]uint32, error) {
	tracks := make([]uint32, 0, nPages)
	cur := first
	for cur != 0 && len(tracks) < nPages {
		p, err := s.tm.ReadTrack(cur)
		if err != nil {
			return nil, fmt.Errorf("store: table directory unreadable: %w", err)
		}
		count := int(getU32(p[0:]))
		next := getU32(p[4:])
		for i := 0; i < count; i++ {
			tracks = append(tracks, getU32(p[8+4*i:]))
		}
		cur = next
	}
	if len(tracks) != nPages {
		return nil, fmt.Errorf("store: table directory truncated: %d of %d pages", len(tracks), nPages)
	}
	return tracks, nil
}

// probeStoredTrackSize reads the raw head of the primary replica and pulls
// the track size recorded in superblock slot 0, bypassing checksums.
func (s *Store) probeStoredTrackSize() (uint32, bool) {
	s.tm.mu.Lock()
	defer s.tm.mu.Unlock()
	if len(s.tm.arms) == 0 {
		return 0, false
	}
	buf := make([]byte, trackHeaderLen+superLen)
	if _, err := s.tm.arms[0].f.ReadAt(buf, 0); err != nil {
		return 0, false
	}
	if getU32(buf[trackHeaderLen:]) != superMagic {
		return 0, false
	}
	return getU32(buf[trackHeaderLen+48:]), true
}

// Meta returns the durable metadata of the last committed state.
func (s *Store) Meta() Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// TrackManager exposes the underlying device for statistics and damage
// injection in experiments.
func (s *Store) TrackManager() *TrackManager { return s.tm }

// Health reports the state of every replica arm.
func (s *Store) Health() []ArmHealth { return s.tm.Health() }

// Scrub runs one online scrub pass over every allocated track, repairing
// damaged copies from a valid arm. Commits proceed concurrently.
func (s *Store) Scrub() ScrubResult { return s.tm.Scrub() }

// Rebuild reconstructs the given replica arm from the surviving arms and
// reinstates it to healthy.
func (s *Store) Rebuild(replica int) error { return s.tm.Rebuild(replica) }

// Close releases the store.
func (s *Store) Close() error { return s.tm.Close() }

func (s *Store) failpoint(step string) error {
	if s.opts.FailPoint == nil {
		return nil
	}
	if err := s.opts.FailPoint(step); err != nil {
		return fmt.Errorf("%w at %q: %v", ErrCrashed, step, err)
	}
	return nil
}

// loadPage returns the parsed object-table page with the given index,
// using the cache.
func (s *Store) loadPageLocked(idx int) ([]Locator, error) {
	if p, ok := s.pageCache[idx]; ok {
		return p, nil
	}
	if idx >= len(s.pageTracks) {
		return nil, ErrNotFound
	}
	raw, err := s.tm.ReadTrack(s.pageTracks[idx])
	if err != nil {
		return nil, err
	}
	page := make([]Locator, s.entriesPerPage)
	for i := 0; i < s.entriesPerPage; i++ {
		off := i * locatorLen
		page[i] = Locator{
			Track:  getU32(raw[off:]),
			Offset: getU32(raw[off+4:]),
			Length: getU32(raw[off+8:]),
			Flags:  getU32(raw[off+12:]),
		}
	}
	s.pageCache[idx] = page
	return page, nil
}

// locate returns the Locator for a serial.
func (s *Store) locateLocked(serial uint64) (Locator, error) {
	if serial == 0 {
		return Locator{}, ErrNotFound
	}
	idx := int((serial - 1) / uint64(s.entriesPerPage))
	page, err := s.loadPageLocked(idx)
	if err != nil {
		return Locator{}, err
	}
	loc := page[(serial-1)%uint64(s.entriesPerPage)]
	if loc.Length == 0 {
		return Locator{}, ErrNotFound
	}
	return loc, nil
}

// Load reads, decodes and returns the object with the given OOP from the
// committed state.
func (s *Store) Load(o oop.OOP) (*object.Object, error) {
	if !o.IsHeap() {
		return nil, fmt.Errorf("store: cannot load immediate %v", o)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, err := s.locateLocked(o.Serial())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", err, o)
	}
	if loc.Flags&flagArchived != 0 {
		raw, ok := s.archive[o.Serial()]
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrArchived, o)
		}
		return DecodeObject(raw)
	}
	raw, err := s.tm.ReadRange(loc.Track, int(loc.Offset), int(loc.Length))
	if err != nil {
		return nil, err
	}
	ob, err := DecodeObject(raw)
	if err != nil {
		return nil, err
	}
	if ob.OOP != o {
		return nil, fmt.Errorf("store: object table corruption: wanted %v, record holds %v", o, ob.OOP)
	}
	return ob, nil
}

// Exists reports whether the committed state holds an object for o.
func (s *Store) Exists(o oop.OOP) bool {
	if !o.IsHeap() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.locateLocked(o.Serial())
	return err == nil
}

// Apply runs the commit protocol for one batch. On success the batch is
// durable and visible; on any error (including injected crashes) the
// previous state remains the recoverable one.
func (s *Store) Apply(c Commit) error {
	sw := s.met.applyNS.Start()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer sw.Stop()

	// --- Boxer: pack serialized records contiguously into fresh tracks ---
	// A sizing pre-pass presizes the encode slab exactly, so a steady-state
	// commit appends into recycled memory instead of growing a fresh buffer.
	payload := s.tm.PayloadSize()
	need := 0
	for _, ob := range c.Objects {
		need += EncodedSize(ob)
	}
	if cap(s.scratch.buf) < need {
		s.scratch.buf = make([]byte, 0, need)
		s.met.slabGrows.Inc()
	} else {
		s.met.slabReuses.Inc()
	}
	buf := s.scratch.buf[:0]
	places := s.scratch.places[:0]
	for _, ob := range c.Objects {
		start := len(buf)
		buf = EncodeObject(buf, ob)
		places = append(places, placed{ob.OOP.Serial(), start, len(buf) - start})
	}
	s.scratch.buf, s.scratch.places = buf, places
	nData := (len(buf) + payload - 1) / payload
	firstData := s.tm.Allocate(nData)
	writes := s.scratch.writes[:0]
	for i := 0; i < nData; i++ {
		lo := i * payload
		hi := lo + payload
		if hi > len(buf) {
			hi = len(buf)
		}
		writes = append(writes, TrackWrite{Track: firstData + uint32(i), Payload: buf[lo:hi]})
	}
	s.scratch.writes = writes
	if err := s.failpoint("before-data"); err != nil {
		return err
	}
	if err := s.tm.WriteRun(writes); err != nil {
		return err
	}
	if err := s.failpoint("after-data"); err != nil {
		return err
	}

	// --- Object table: copy-on-write the affected pages ---
	maxSerial := s.meta.NextSerial
	if c.NextSerial > maxSerial {
		maxSerial = c.NextSerial
	}
	neededPages := int((maxSerial - 1 + uint64(s.entriesPerPage) - 1) / uint64(s.entriesPerPage))
	if maxSerial <= 1 {
		neededPages = 0
	}
	// The next directory is double-buffered with the live one: on success
	// the superseded directory becomes the scratch for the commit after.
	npt := append(s.scratch.pageTracks[:0], s.pageTracks...)
	for len(npt) < neededPages {
		npt = append(npt, 0) // fresh empty page
	}
	s.scratch.pageTracks = npt
	dirtyPages := s.scratch.dirtyPages[:0]
	if s.scratch.dirtyAt == nil {
		s.scratch.dirtyAt = make(map[int]int)
	}
	dirtyAt := s.scratch.dirtyAt
	clear(dirtyAt)
	committed := false
	defer func() {
		// A failed Apply owes every COW page back to the pool; a committed
		// one has already published them into the page cache (recycling the
		// pages they replaced instead).
		if !committed {
			for i := range dirtyPages {
				putPage(&s.pagePool, dirtyPages[i].page)
			}
		}
		s.scratch.dirtyPages = dirtyPages[:0]
	}()
	pageOf := func(serial uint64) (int, int) {
		return int((serial - 1) / uint64(s.entriesPerPage)), int((serial - 1) % uint64(s.entriesPerPage))
	}
	ensureDirty := func(idx int) ([]Locator, error) {
		if pi, ok := dirtyAt[idx]; ok {
			return dirtyPages[pi].page, nil
		}
		page, reused := takePage(&s.pagePool, s.entriesPerPage)
		if reused {
			s.met.slabReuses.Inc()
		} else {
			s.met.slabGrows.Inc()
		}
		if idx < len(s.pageTracks) && npt[idx] != 0 {
			orig, err := s.loadPageLocked(idx)
			if err != nil {
				putPage(&s.pagePool, page)
				return nil, err
			}
			copy(page, orig)
		} else {
			clear(page) // recycled pages carry stale locators; fresh pages are empty
		}
		dirtyAt[idx] = len(dirtyPages)
		dirtyPages = append(dirtyPages, cowPage{idx: idx, page: page})
		//lint:ignore bufown ownership transfers to Apply: the deferred cleanup recycles the page on failure and the page cache takes it on commit
		return page, nil
	}
	// Ascending serial order keeps page materialization deterministic for
	// identical commits (detmap invariant); a stable index tie-break keeps
	// last-wins semantics for duplicate serials in one batch.
	order := s.scratch.order[:0]
	for i := range places {
		order = append(order, i)
	}
	s.scratch.order = order
	sort.SliceStable(order, func(a, b int) bool { return places[order[a]].serial < places[order[b]].serial })
	for _, pi := range order {
		p := places[pi]
		idx, slot := pageOf(p.serial)
		page, err := ensureDirty(idx)
		if err != nil {
			return err
		}
		page[slot] = Locator{
			Track:  firstData + uint32(p.off/payload),
			Offset: uint32(p.off % payload),
			Length: uint32(p.length),
		}
	}
	for _, serial := range c.ArchiveSerials {
		idx, slot := pageOf(serial)
		page, err := ensureDirty(idx)
		if err != nil {
			return err
		}
		page[slot].Flags |= flagArchived
	}
	// Fresh pages beyond the old table that received no locator still need
	// allocation (all-empty pages), so every page index has a track.
	for idx := range npt {
		if npt[idx] == 0 {
			if _, err := ensureDirty(idx); err != nil {
				return err
			}
		}
	}
	// Ascending page order keeps the page-index -> track assignment (and so
	// the whole shadow-paged image) identical for identical commits.
	pageOrder := s.scratch.pageOrder[:0]
	for i := range dirtyPages {
		pageOrder = append(pageOrder, i)
	}
	s.scratch.pageOrder = pageOrder
	sort.Slice(pageOrder, func(a, b int) bool { return dirtyPages[pageOrder[a]].idx < dirtyPages[pageOrder[b]].idx })
	// One image slab carries the encoded table pages and the directory
	// chain; WriteRun copies into its own scratch, so slices of img are
	// loans that end at each WriteRun return.
	rawLen := s.entriesPerPage * locatorLen
	perDir := (payload - 8) / 4
	nDir := 0
	if len(npt) > 0 {
		nDir = (len(npt) + perDir - 1) / perDir
	}
	imgNeed := len(dirtyPages)*rawLen + nDir*8 + len(npt)*4
	if cap(s.scratch.img) < imgNeed {
		s.scratch.img = make([]byte, imgNeed)
		s.met.slabGrows.Inc()
	} else {
		s.met.slabReuses.Inc()
	}
	img := s.scratch.img[:cap(s.scratch.img)]
	imgOff := 0
	firstPage := s.tm.Allocate(len(dirtyPages))
	writes = writes[:0]
	for pi, di := range pageOrder {
		d := dirtyPages[di]
		tr := firstPage + uint32(pi)
		npt[d.idx] = tr
		raw := img[imgOff : imgOff+rawLen]
		imgOff += rawLen
		for i, loc := range d.page {
			off := i * locatorLen
			putU32(raw[off:], loc.Track)
			putU32(raw[off+4:], loc.Offset)
			putU32(raw[off+8:], loc.Length)
			putU32(raw[off+12:], loc.Flags)
		}
		writes = append(writes, TrackWrite{Track: tr, Payload: raw})
	}
	s.scratch.writes = writes
	if err := s.tm.WriteRun(writes); err != nil {
		return err
	}
	if err := s.failpoint("after-table"); err != nil {
		return err
	}

	// --- Table directory chain ---
	var dirHead uint32
	if len(npt) > 0 {
		firstDir := s.tm.Allocate(nDir)
		writes = writes[:0]
		for i := 0; i < nDir; i++ {
			lo := i * perDir
			hi := lo + perDir
			if hi > len(npt) {
				hi = len(npt)
			}
			raw := img[imgOff : imgOff+8+4*(hi-lo)]
			imgOff += len(raw)
			putU32(raw[0:], uint32(hi-lo))
			next := uint32(0)
			if i+1 < nDir {
				next = firstDir + uint32(i) + 1
			}
			putU32(raw[4:], next)
			for j := lo; j < hi; j++ {
				putU32(raw[8+4*(j-lo):], npt[j])
			}
			writes = append(writes, TrackWrite{Track: firstDir + uint32(i), Payload: raw})
		}
		s.scratch.writes = writes
		if err := s.tm.WriteRun(writes); err != nil {
			return err
		}
		dirHead = firstDir
	}
	if err := s.failpoint("after-directory"); err != nil {
		return err
	}
	if err := s.tm.Sync(); err != nil {
		return err
	}

	// --- Commit point: flip the superblock ---
	newMeta := s.meta
	newMeta.Epoch++
	if c.Time > newMeta.LastTime {
		newMeta.LastTime = c.Time // never regress on out-of-band system commits
	}
	newMeta.NextSerial = maxSerial
	if c.Root != oop.Invalid {
		newMeta.Root = c.Root
	}
	oldMeta, oldPages := s.meta, s.pageTracks
	s.meta = newMeta
	s.pageTracks = npt
	s.dirTrackPending = dirHead
	if err := s.failpoint("before-superblock"); err != nil {
		s.meta, s.pageTracks = oldMeta, oldPages
		return err
	}
	if err := s.writeSuperblockLocked(); err != nil {
		s.meta, s.pageTracks = oldMeta, oldPages
		return err
	}
	// Commit point passed: the new pages supersede cached copies, which
	// come back to the pool, and the superseded directory becomes the next
	// commit's scratch.
	committed = true
	for i := range dirtyPages {
		if old, ok := s.pageCache[dirtyPages[i].idx]; ok {
			putPage(&s.pagePool, old)
		}
		s.pageCache[dirtyPages[i].idx] = dirtyPages[i].page
	}
	s.scratch.pageTracks = oldPages[:0]
	s.met.applies.Inc()
	if s.tm.DegradedArms() > 0 {
		s.met.degraded.Inc()
	}
	return nil
}

// Archive moves the objects with the given OOPs to the simulated offline
// medium ("A database administrator can explicitly move objects to other
// media", §6). The records are copied to the archive and the object-table
// entries are flagged through the normal commit protocol; subsequent Loads
// consult the archive. "Hence, while conceptually the entire history of the
// database exists, some objects in it may become temporarily or permanently
// inaccessible" — detaching the archive (DetachArchive) makes Load return
// ErrArchived.
func (s *Store) Archive(t oop.Time, oops []oop.OOP) error {
	s.mu.Lock()
	serials := make([]uint64, 0, len(oops))
	for _, o := range oops {
		loc, err := s.locateLocked(o.Serial())
		if err != nil {
			s.mu.Unlock()
			return err
		}
		raw, err := s.tm.ReadRange(loc.Track, int(loc.Offset), int(loc.Length))
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.archive[o.Serial()] = raw
		serials = append(serials, o.Serial())
	}
	next := s.meta.NextSerial
	s.mu.Unlock()
	return s.Apply(Commit{Time: t, NextSerial: next, ArchiveSerials: serials})
}

// DetachArchive simulates dismounting the offline medium.
func (s *Store) DetachArchive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.archive = make(map[uint64][]byte)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
