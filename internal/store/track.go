package store

import (
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// TrackManager performs whole-track I/O against a set of replica arms,
// reproducing the paper's device model: "Disk access will always be by
// entire tracks, as a track is the natural unit of physical access"
// (§6). Writes fan out to every active arm; reads validate a per-track
// checksum and fall back to the next arm on damage, which is the paper's
// "requests for replication of data".
//
// Each arm carries a health state (see replica.go): a write or sync
// failure degrades the arm and excludes it from further I/O instead of
// poisoning every commit, as long as a write quorum of arms stays
// durable. Salvaged reads heal the arms they bypassed (read-repair), the
// scrubber sweeps for silent rot, and Rebuild reconstructs a degraded arm
// bit-for-bit.
//
// Write scheduling sorts each group by ascending track number — the
// elevator pass a real controller would make — and the manager keeps
// per-arm head positions so seek statistics model each mirrored
// controller's own arm.
type TrackManager struct {
	trackSize int
	payload   int // trackSize minus checksum header
	quorum    int // minimum durable arms for a write/sync to succeed

	mu       sync.Mutex // guards arms, nTracks, cache, stats, scratch, free, wbatch
	arms     []*arm
	nTracks  uint32 // allocation high-water mark
	cache    map[uint32][]byte
	cacheCap int
	scratch  []byte       // reusable whole-group track-image encode buffer
	free     [][]byte     // recycled track buffers (cache images, read staging)
	wbatch   []TrackWrite // reusable one-entry batch for WriteTrack

	stats TrackStats
	met   trackMetrics
}

// TrackWrite names one track image in a write run. Payloads are copied
// into the encode slab before any I/O, so callers may reuse both the
// batch slice and the payload bytes as soon as WriteRun returns.
type TrackWrite struct {
	Track   uint32
	Payload []byte
}

// trackMetrics mirrors TrackStats into the obs registry so live counters
// are visible without polling Stats(). Atomic instruments, not guarded
// state. The per-replica fallback counters give the §6 availability story a
// per-device view: which mirror is serving reads the primary lost.
type trackMetrics struct {
	reads         *obs.Counter // device track reads (cache misses)
	writes        *obs.Counter // per-replica track writes
	bytesRead     *obs.Counter
	bytesWritten  *obs.Counter
	cacheHits     *obs.Counter
	syncs         *obs.Counter
	slabReuses    *obs.Counter   // buffers served from a reuse pool (shared with Store)
	slabGrows     *obs.Counter   // buffers the pools had to allocate fresh (shared with Store)
	fallbacks     []*obs.Counter // indexed by the replica that salvaged the read
	states        []*obs.Gauge   // per-replica ArmState (0 healthy, 1 suspect, 2 degraded)
	repairs       *obs.Counter   // track copies rewritten from a valid arm (all paths)
	readRepairs   *obs.Counter   // repairs triggered by a salvaged read
	scrubPasses   *obs.Counter
	scrubScanned  *obs.Counter
	scrubRepaired *obs.Counter
	scrubLost     *obs.Counter
	rebuilds      *obs.Counter // arms reconstructed and reinstated
}

// TrackStats counts physical I/O for benchmark reporting.
type TrackStats struct {
	Reads            uint64 // track reads that went to a device
	Writes           uint64 // per-replica track writes
	CacheHits        uint64
	ReplicaFallbacks uint64 // reads salvaged from a later replica
	ReadRepairs      uint64 // damaged copies healed after a salvaged read
	SeekDistance     uint64 // cumulative |Δtrack| across device accesses
}

const trackHeaderLen = 8      // crc32 (4) + magic (4)
const trackMagic = 0x4B525447 // "GTRK"

// NewTrackManager opens (creating if needed) nReplicas arm files under
// dir. quorum is the minimum number of arms a write must reach (clamped
// to [1, nReplicas]); open supplies each arm's device and defaults to the
// plain os.File opener.
func NewTrackManager(dir string, trackSize, nReplicas, cacheTracks, quorum int, open OpenReplicaFunc) (*TrackManager, error) {
	if trackSize < 512 {
		return nil, fmt.Errorf("store: track size %d too small", trackSize)
	}
	if nReplicas < 1 {
		nReplicas = 1
	}
	if quorum < 1 {
		quorum = 1
	}
	if quorum > nReplicas {
		quorum = nReplicas
	}
	if open == nil {
		open = osOpenReplica
	}
	tm := &TrackManager{
		trackSize: trackSize,
		payload:   trackSize - trackHeaderLen,
		quorum:    quorum,
		cache:     make(map[uint32][]byte),
		cacheCap:  cacheTracks,
	}
	for i := 0; i < nReplicas; i++ {
		p := filepath.Join(dir, fmt.Sprintf("replica%d.gs", i))
		f, err := open(p, i)
		if err != nil {
			tm.Close()
			return nil, fmt.Errorf("store: open replica: %w", err)
		}
		tm.arms = append(tm.arms, &arm{f: f, path: p})
	}
	// Recover the high-water mark from the primary's size.
	st, err := tm.arms[0].f.Stat()
	if err != nil {
		tm.Close()
		return nil, err
	}
	tm.nTracks = uint32(st.Size() / int64(trackSize))
	return tm, nil
}

// PayloadSize returns usable bytes per track.
func (tm *TrackManager) PayloadSize() int { return tm.payload }

// Tracks returns the allocation high-water mark.
func (tm *TrackManager) Tracks() uint32 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.nTracks
}

// Replicas returns the number of configured arms (any state).
func (tm *TrackManager) Replicas() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.arms)
}

// DegradedArms returns how many arms are currently excluded from I/O.
func (tm *TrackManager) DegradedArms() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	n := 0
	for _, a := range tm.arms {
		if a.state == ArmDegraded {
			n++
		}
	}
	return n
}

// Allocate reserves n fresh tracks and returns the first track number.
// Allocation is append-only: committed tracks are never overwritten, the
// write-once style the paper anticipates for optical media ([Cp], §5.3.1
// footnote on storage cost trends). Reclamation is an administrative
// archival action, not reuse.
func (tm *TrackManager) Allocate(n int) uint32 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	first := tm.nTracks
	tm.nTracks += uint32(n)
	return first
}

// instrument attaches the obs registry's counters. A nil registry hands
// out nil (no-op) instruments, so this is unconditional in Open.
func (tm *TrackManager) instrument(reg *obs.Registry) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.met = trackMetrics{
		reads:         reg.Counter("store.track.reads"),
		writes:        reg.Counter("store.track.writes"),
		bytesRead:     reg.Counter("store.track.bytes.read"),
		bytesWritten:  reg.Counter("store.track.bytes.written"),
		cacheHits:     reg.Counter("store.cache.hits"),
		syncs:         reg.Counter("store.syncs"),
		repairs:       reg.Counter("store.repair.tracks"),
		readRepairs:   reg.Counter("store.readrepair.tracks"),
		scrubPasses:   reg.Counter("store.scrub.passes"),
		scrubScanned:  reg.Counter("store.scrub.scanned"),
		scrubRepaired: reg.Counter("store.scrub.repaired"),
		scrubLost:     reg.Counter("store.scrub.lost"),
		rebuilds:      reg.Counter("store.rebuilds"),
		slabReuses:    reg.Counter("store.slab.reuses"),
		slabGrows:     reg.Counter("store.slab.grows"),
	}
	for i, a := range tm.arms {
		tm.met.fallbacks = append(tm.met.fallbacks, reg.Counter(fmt.Sprintf("store.replica.fallbacks.r%d", i)))
		g := reg.Gauge(fmt.Sprintf("store.replica.state.r%d", i))
		g.Set(int64(a.state))
		tm.met.states = append(tm.met.states, g)
	}
}

// Stats returns a snapshot of the I/O counters.
func (tm *TrackManager) Stats() TrackStats {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.stats
}

// ResetStats zeroes the I/O counters (between benchmark phases).
func (tm *TrackManager) ResetStats() {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.stats = TrackStats{}
}

// WriteRun writes a batch of tracks to every active arm, sorted ascending
// (elevator order; the batch is sorted in place). The track images are
// encoded once into a reusable scratch buffer, then fanned out
// concurrently — mirrored controllers seek in parallel, so a replicated
// safe-write costs one device pass, not Replicas sequential passes.
// Payloads shorter than the track payload are zero-padded; longer
// payloads are an error. Arms whose writes fail are degraded; the run
// succeeds while at least the write quorum of arms holds it durably.
func (tm *TrackManager) WriteRun(writes []TrackWrite) error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.writeRunLocked(writes)
}

func (tm *TrackManager) writeRunLocked(writes []TrackWrite) error {
	sort.Slice(writes, func(i, j int) bool { return writes[i].Track < writes[j].Track })
	active := tm.activeLocked()
	if len(active) < tm.quorum {
		return fmt.Errorf("store: %d of %d replica arms active, need write quorum %d", len(active), len(tm.arms), tm.quorum)
	}
	need := len(writes) * tm.trackSize
	if cap(tm.scratch) < need {
		tm.scratch = make([]byte, need)
		tm.met.slabGrows.Inc()
	} else {
		tm.met.slabReuses.Inc()
	}
	slab := tm.scratch[:need]
	for i, w := range writes {
		if len(w.Payload) > tm.payload {
			return fmt.Errorf("store: track payload %d exceeds %d", len(w.Payload), tm.payload)
		}
		buf := slab[i*tm.trackSize : (i+1)*tm.trackSize]
		copy(buf[trackHeaderLen:], w.Payload)
		for j := trackHeaderLen + len(w.Payload); j < len(buf); j++ {
			buf[j] = 0
		}
		sum := crc32.ChecksumIEEE(buf[trackHeaderLen:])
		putU32(buf[0:], sum)
		putU32(buf[4:], trackMagic)
		for _, ri := range active {
			tm.seekLocked(tm.arms[ri], w.Track)
		}
		tm.stats.Writes += uint64(len(active))
	}
	tm.met.writes.Add(uint64(len(writes) * len(active)))
	tm.met.bytesWritten.Add(uint64(need * len(active)))
	if err := tm.fanoutLocked(slab, writes, active); err != nil {
		return err
	}
	for i, w := range writes {
		tm.cacheInsertLocked(w.Track, slab[i*tm.trackSize+trackHeaderLen:(i+1)*tm.trackSize])
	}
	return nil
}

// fanoutLocked pushes the encoded track images to the active arms: inline
// for a single arm, one goroutine per arm otherwise. WriteAt is safe for
// concurrent use, and each goroutine touches only its own file and error
// slot. Failed arms are marked degraded; the fan-out succeeds while the
// write quorum survives.
func (tm *TrackManager) fanoutLocked(slab []byte, writes []TrackWrite, active []int) error {
	ts := tm.trackSize
	writeAll := func(f ReplicaFile) error {
		for i := range writes {
			n := writes[i].Track
			if _, err := f.WriteAt(slab[i*ts:(i+1)*ts], int64(n)*int64(ts)); err != nil {
				return fmt.Errorf("store: write track %d: %w", n, err)
			}
		}
		return nil
	}
	errs := make([]error, len(active))
	if len(active) == 1 {
		errs[0] = writeAll(tm.arms[active[0]].f)
	} else {
		var wg sync.WaitGroup
		for i, ri := range active {
			wg.Add(1)
			go func(i int, f ReplicaFile) {
				defer wg.Done()
				errs[i] = writeAll(f)
			}(i, tm.arms[ri].f)
		}
		wg.Wait()
	}
	surviving := 0
	var firstErr error
	for i, ri := range active {
		if errs[i] != nil {
			tm.degradeLocked(ri, errs[i])
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		surviving++
	}
	if surviving < tm.quorum {
		return fmt.Errorf("store: write quorum lost: %d of %d arms durable, need %d: %w", surviving, len(tm.arms), tm.quorum, firstErr)
	}
	return nil
}

// WriteTrack writes a single track.
func (tm *TrackManager) WriteTrack(n uint32, payload []byte) error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.wbatch = append(tm.wbatch[:0], TrackWrite{Track: n, Payload: payload})
	return tm.writeRunLocked(tm.wbatch)
}

// ReadTrack returns the payload of track n, trying active arms in order
// until one passes its checksum. Arms whose copy is damaged are marked
// suspect and, once a later arm salvages the read, healed in place with
// the good image (read-repair). The returned slice is always private to
// the caller: cache hits and device reads both hand out a copy.
func (tm *TrackManager) ReadTrack(n uint32) ([]byte, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.appendTrackLocked(nil, n, 0, tm.payload)
}

// appendTrackLocked appends up to length bytes of track n's payload,
// starting at offset, onto dst (clamped at the payload end). Cache hits
// copy straight out of the cached image; misses stage the device read in
// a pooled track buffer, try active arms in order until one passes its
// checksum, read-repair the arms that were bypassed, install a private
// copy in the cache, and recycle the staging buffer before returning.
// Nothing handed to the caller ever aliases the pool or the cache.
func (tm *TrackManager) appendTrackLocked(dst []byte, n uint32, offset, length int) ([]byte, error) {
	if p, ok := tm.cache[n]; ok {
		tm.stats.CacheHits++
		tm.met.cacheHits.Inc()
		return appendClamped(dst, p, offset, length)
	}
	buf, reused := popTrack(&tm.free, tm.trackSize, tm.trackSize)
	tm.countPop(reused)
	var lastErr error
	var failed []int // earlier arms whose copy was damaged
	for ri, a := range tm.arms {
		if a.state == ArmDegraded {
			continue
		}
		if err := tm.readRawLocked(ri, n, buf); err != nil {
			lastErr = err
			tm.suspectLocked(ri, err)
			failed = append(failed, ri)
			continue
		}
		if len(failed) > 0 {
			tm.stats.ReplicaFallbacks++
			a.fallbacks++
			if ri < len(tm.met.fallbacks) {
				tm.met.fallbacks[ri].Inc()
			}
			tm.readRepairLocked(n, buf, failed)
		}
		tm.cacheInsertLocked(n, buf[trackHeaderLen:])
		out, err := appendClamped(dst, buf[trackHeaderLen:], offset, length)
		tm.recycleLocked(buf)
		return out, err
	}
	tm.recycleLocked(buf)
	if lastErr == nil {
		lastErr = fmt.Errorf("store: track %d unreadable", n)
	}
	return nil, lastErr
}

// appendClamped appends p[offset:offset+length], clamped to len(p), onto
// dst. offset at or past the payload end is an error (a locator pointing
// into padding).
func appendClamped(dst, p []byte, offset, length int) ([]byte, error) {
	if offset >= len(p) {
		return nil, fmt.Errorf("store: offset %d beyond track payload", offset)
	}
	end := offset + length
	if end > len(p) {
		end = len(p)
	}
	return append(dst, p[offset:end]...), nil
}

// readRepairLocked writes a validated raw track image back onto the arms
// whose copy was damaged — the paper's replication request loop closing
// itself: a salvaged read heals the arm it bypassed. A failing repair
// write degrades the arm; repaired arms stay suspect until a scrub pass
// clears them.
func (tm *TrackManager) readRepairLocked(n uint32, img []byte, failed []int) {
	for _, ri := range failed {
		a := tm.arms[ri]
		if a.state == ArmDegraded {
			continue
		}
		tm.seekLocked(a, n)
		if _, err := a.f.WriteAt(img, int64(n)*int64(tm.trackSize)); err != nil {
			tm.degradeLocked(ri, fmt.Errorf("store: read-repair of track %d failed: %w", n, err))
			continue
		}
		a.repairs++
		tm.stats.ReadRepairs++
		tm.stats.Writes++
		tm.met.readRepairs.Inc()
		tm.met.repairs.Inc()
		tm.met.writes.Inc()
		tm.met.bytesWritten.Add(uint64(tm.trackSize))
	}
}

// ReadRange reads length bytes starting at (track, offset), crossing track
// boundaries as needed. The Boxer lays objects contiguously, so a spanning
// object is a consecutive run of tracks.
func (tm *TrackManager) ReadRange(track uint32, offset, length int) ([]byte, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]byte, 0, length)
	for length > 0 {
		before := len(out)
		var err error
		out, err = tm.appendTrackLocked(out, track, offset, length)
		if err != nil {
			return nil, err
		}
		length -= len(out) - before
		offset = 0
		track++
	}
	return out, nil
}

// Sync flushes every active arm to stable storage, concurrently when
// replicated: the group's durability point is the slowest device, not the
// sum of all devices. Arms that fail to sync are degraded — their data
// may not be durable — and the sync succeeds while the write quorum of
// arms confirmed.
func (tm *TrackManager) Sync() error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.met.syncs.Inc()
	active := tm.activeLocked()
	if len(active) < tm.quorum {
		return fmt.Errorf("store: %d of %d replica arms active, need write quorum %d", len(active), len(tm.arms), tm.quorum)
	}
	errs := make([]error, len(active))
	if len(active) == 1 {
		errs[0] = tm.arms[active[0]].f.Sync()
	} else {
		var wg sync.WaitGroup
		for i, ri := range active {
			wg.Add(1)
			go func(i int, f ReplicaFile) {
				defer wg.Done()
				errs[i] = f.Sync()
			}(i, tm.arms[ri].f)
		}
		wg.Wait()
	}
	surviving := 0
	var firstErr error
	for i, ri := range active {
		if errs[i] != nil {
			tm.degradeLocked(ri, errs[i])
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		surviving++
	}
	if surviving < tm.quorum {
		return fmt.Errorf("store: sync quorum lost: %d of %d arms durable, need %d: %w", surviving, len(tm.arms), tm.quorum, firstErr)
	}
	return nil
}

// Close releases the replica files.
func (tm *TrackManager) Close() error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	var first error
	for _, a := range tm.arms {
		if a == nil || a.f == nil {
			continue
		}
		if err := a.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	tm.arms = nil
	return first
}

// DamageTrack corrupts track n on one replica (for availability testing —
// experiment C7). It flips bytes in the stored payload so the checksum
// fails, and evicts the cache entry so the next read hits the device.
func (tm *TrackManager) DamageTrack(replica int, n uint32) error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if replica < 0 || replica >= len(tm.arms) {
		return fmt.Errorf("store: no replica %d", replica)
	}
	delete(tm.cache, n)
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF}
	_, err := tm.arms[replica].f.WriteAt(garbage, int64(n)*int64(tm.trackSize)+trackHeaderLen)
	return err
}

// DropCache clears the in-memory track cache (benchmarks that want cold
// reads).
func (tm *TrackManager) DropCache() {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.cache = make(map[uint32][]byte)
}

// cacheInsertLocked stores a private copy of p, so callers may pass
// transient buffers (the scratch slab, pooled staging buffers) and cached
// payloads are never aliased by anything handed out. The copy lives in a
// pooled buffer; the entry it replaces or evicts is recycled, so a warm
// cache inserts without allocating.
func (tm *TrackManager) cacheInsertLocked(n uint32, p []byte) {
	if tm.cacheCap <= 0 {
		return
	}
	if old, ok := tm.cache[n]; ok {
		tm.recycleLocked(old)
	} else if len(tm.cache) >= tm.cacheCap {
		// Evict an arbitrary entry; the cache is a small working-set buffer,
		// not a scored LRU, matching a simple controller buffer.
		//lint:ignore detmap in-memory cache eviction only; never reaches a track image
		for k := range tm.cache {
			tm.recycleLocked(tm.cache[k])
			delete(tm.cache, k)
			break
		}
	}
	b, reused := popTrack(&tm.free, len(p), tm.trackSize)
	tm.countPop(reused)
	copy(b, p)
	//lint:ignore bufown ownership transfers to the cache: pool and cache never alias, and replaced or evicted entries are recycled
	tm.cache[n] = b
}

// popTrack takes a recycled buffer from the pool, resliced to size, or
// allocates a fresh one with the given full capacity. The second result
// reports whether the pool served it. A free function on purpose: pool
// buffers are transient loans, and the discipline that keeps a loan from
// leaking belongs to the call sites that hold one.
func popTrack(pool *[][]byte, size, full int) ([]byte, bool) {
	if n := len(*pool); n > 0 {
		b := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		return b[:size], true
	}
	return make([]byte, full)[:size], false
}

// recycleLocked returns a buffer to the pool for reuse. Only full-capacity
// track buffers are kept — reslicing on pop depends on it — and the pool
// is bounded so a cold burst cannot pin memory forever.
func (tm *TrackManager) recycleLocked(buf []byte) {
	if cap(buf) < tm.trackSize || len(tm.free) >= tm.cacheCap+16 {
		return
	}
	tm.free = append(tm.free, buf[:tm.trackSize])
}

// countPop records a pool pop against the shared slab instruments.
func (tm *TrackManager) countPop(reused bool) {
	if reused {
		tm.met.slabReuses.Inc()
	} else {
		tm.met.slabGrows.Inc()
	}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
