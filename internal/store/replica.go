package store

import (
	"fmt"
	"hash/crc32"
	"os"
)

// ReplicaFile is the device interface one replica arm is driven through.
// Production arms are *os.File; tests and the availability experiments
// substitute an internal/iofault wrapper (structurally identical, so
// neither package imports the other) to inject torn writes, bit-flips,
// EIO, ENOSPC and latency on a deterministic schedule.
type ReplicaFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Close() error
}

// OpenReplicaFunc opens the backing file of one replica arm. The store
// calls it once per arm at Open; replica is the arm index.
type OpenReplicaFunc func(path string, replica int) (ReplicaFile, error)

func osOpenReplica(path string, replica int) (ReplicaFile, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// ArmState is the health of one replica arm. The state machine implements
// the paper's §6 detect–degrade–repair loop:
//
//	healthy ──(read error / checksum damage)──▶ suspect
//	healthy/suspect ──(write or sync failure; stale epoch at open)──▶ degraded
//	suspect ──(scrub pass finds no unrepaired damage)──▶ healthy
//	degraded ──(Rebuild reconstructs the arm bit-for-bit)──▶ healthy
//
// A suspect arm still participates in writes and is healed opportunistically
// (read-repair) and by the scrubber. A degraded arm is excluded from both
// reads and writes — its contents may be arbitrarily stale — until Rebuild
// reinstates it.
type ArmState uint8

// Arm states, ordered by severity.
const (
	ArmHealthy ArmState = iota
	ArmSuspect
	ArmDegraded
)

// String names the state.
func (s ArmState) String() string {
	switch s {
	case ArmHealthy:
		return "healthy"
	case ArmSuspect:
		return "suspect"
	case ArmDegraded:
		return "degraded"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// arm is one replica device: its file, health, and per-arm head position
// (seek accounting models each mirrored controller's own head).
type arm struct {
	f         ReplicaFile
	path      string
	state     ArmState
	lastPos   uint32 // last track this arm's head touched
	lastErr   string // most recent error that changed the arm's state
	fallbacks uint64 // reads this arm salvaged after an earlier arm failed
	repairs   uint64 // tracks repaired onto this arm (read-repair + scrub)
}

// ArmHealth is the externally visible health of one replica arm,
// surfaced through Store.Health, gemstone.DB.Health and the OpHealth
// wire operation.
type ArmHealth struct {
	Replica   int
	Path      string
	State     string
	LastError string
	Fallbacks uint64 // reads salvaged by this arm
	Repairs   uint64 // tracks repaired onto this arm
}

// Health returns a point-in-time snapshot of every arm, in replica order.
func (tm *TrackManager) Health() []ArmHealth {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]ArmHealth, len(tm.arms))
	for i, a := range tm.arms {
		out[i] = ArmHealth{
			Replica:   i,
			Path:      a.path,
			State:     a.state.String(),
			LastError: a.lastErr,
			Fallbacks: a.fallbacks,
			Repairs:   a.repairs,
		}
	}
	return out
}

// setStateLocked transitions an arm and mirrors the state into the obs
// gauge. cause may be nil (promotions).
func (tm *TrackManager) setStateLocked(ri int, st ArmState, cause error) {
	a := tm.arms[ri]
	a.state = st
	if cause != nil {
		a.lastErr = cause.Error()
	} else if st == ArmHealthy {
		a.lastErr = ""
	}
	if ri < len(tm.met.states) {
		tm.met.states[ri].Set(int64(st))
	}
}

// suspectLocked marks a healthy arm suspect (media damage seen on a read
// path). Degraded arms are never upgraded here.
func (tm *TrackManager) suspectLocked(ri int, cause error) {
	if tm.arms[ri].state == ArmHealthy {
		tm.setStateLocked(ri, ArmSuspect, cause)
	} else if cause != nil {
		tm.arms[ri].lastErr = cause.Error()
	}
}

// degradeLocked excludes an arm from further I/O until Rebuild.
func (tm *TrackManager) degradeLocked(ri int, cause error) {
	if tm.arms[ri].state != ArmDegraded {
		tm.setStateLocked(ri, ArmDegraded, cause)
	}
}

// DegradeReplica marks an arm degraded from outside the I/O paths; the
// store uses it at recovery when an arm's superblock epoch lags the
// committed one (the arm missed safe-writes while degraded in a previous
// run, so its valid-checksum tracks may still be stale).
func (tm *TrackManager) DegradeReplica(ri int, reason string) error {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if ri < 0 || ri >= len(tm.arms) {
		return fmt.Errorf("store: no replica %d", ri)
	}
	tm.degradeLocked(ri, fmt.Errorf("%s", reason))
	return nil
}

// activeLocked returns the indexes of arms participating in I/O.
func (tm *TrackManager) activeLocked() []int {
	out := make([]int, 0, len(tm.arms))
	for ri, a := range tm.arms {
		if a.state != ArmDegraded {
			out = append(out, ri)
		}
	}
	return out
}

// seekLocked charges one head movement to an arm.
func (tm *TrackManager) seekLocked(a *arm, track uint32) {
	d := int64(track) - int64(a.lastPos)
	if d < 0 {
		d = -d
	}
	tm.stats.SeekDistance += uint64(d)
	a.lastPos = track
}

// readRawLocked reads the full raw track image (header + payload) of
// track n from arm ri into buf and validates magic and checksum.
func (tm *TrackManager) readRawLocked(ri int, n uint32, buf []byte) error {
	a := tm.arms[ri]
	tm.seekLocked(a, n)
	if _, err := a.f.ReadAt(buf, int64(n)*int64(tm.trackSize)); err != nil {
		return fmt.Errorf("store: replica %d track %d: %w", ri, n, err)
	}
	tm.stats.Reads++
	tm.met.reads.Inc()
	tm.met.bytesRead.Add(uint64(tm.trackSize))
	if getU32(buf[4:]) != trackMagic || crc32.ChecksumIEEE(buf[trackHeaderLen:]) != getU32(buf[0:]) {
		return fmt.Errorf("store: checksum failure on track %d replica %d", n, ri)
	}
	return nil
}

// ReadTrackReplica reads and validates track n from one specific arm,
// bypassing the cache and the fallback chain. Recovery uses it to compare
// superblocks across arms; tests use it to observe a single device.
func (tm *TrackManager) ReadTrackReplica(ri int, n uint32) ([]byte, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if ri < 0 || ri >= len(tm.arms) {
		return nil, fmt.Errorf("store: no replica %d", ri)
	}
	buf := make([]byte, tm.trackSize)
	if err := tm.readRawLocked(ri, n, buf); err != nil {
		return nil, err
	}
	return buf[trackHeaderLen:], nil
}

// groupHolders returns the arms among holders (ascending) on which the
// commit group in tracks [first, end) checks out against sum. On each arm
// every track is folded from that arm's own copy. A copy that fails its own
// track checksum is media damage, not evidence about the group: its
// checksum comes from the first other holder whose copy passes, and
// read-repair or scrub heals the damaged copy later. An arm whose fold
// differs drops out, and the rest are refolded without it, so every track
// of a group that checks out has a passing copy on an arm that keeps it.
func (tm *TrackManager) groupHolders(holders []int, first, end, sum uint32) []int {
	for {
		var kept []int
		for _, ri := range holders {
			if got, ok := tm.groupSumOn(ri, holders, first, end); ok && got == sum {
				kept = append(kept, ri)
			}
		}
		if len(kept) == len(holders) {
			return kept
		}
		holders = kept
	}
}

// groupSumOn folds the checksum of tracks [first, end) as arm ri holds
// them, borrowing from peers where ri's copy fails its own checksum. ok is
// false when some track has no passing copy on ri or any peer.
func (tm *TrackManager) groupSumOn(ri int, peers []int, first, end uint32) (sum uint32, ok bool) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	g := groupSum{first: first, next: first}
	buf := make([]byte, tm.trackSize)
	for n := first; n < end; n++ {
		passed := tm.readRawLocked(ri, n, buf) == nil
		for _, peer := range peers {
			if passed {
				break
			}
			passed = peer != ri && tm.readRawLocked(peer, n, buf) == nil
		}
		if !passed {
			return 0, false
		}
		g.fold(getU32(buf[0:]))
	}
	return g.sum, true
}

// ScrubResult summarizes one scrub pass.
type ScrubResult struct {
	Scanned  uint64 // tracks examined
	Repaired uint64 // damaged copies rewritten from a valid arm
	Lost     uint64 // tracks with no valid copy on any active arm
	// SyncErr is non-nil when the post-pass Sync lost the write quorum:
	// the repairs were written but may not be durable, so the pass must
	// not be read as unqualified success.
	SyncErr error
}

// Scrub sweeps every allocated track once, validating each active arm's
// copy and rewriting damaged copies from a valid one (§6: "requests for
// replication of data" as a background loop, the ARIES-style media
// recovery pass). The lock is taken per track, so commits interleave with
// the sweep — the scrubber is online. Suspect arms whose every damaged
// track was repaired are promoted back to healthy at the end of the pass,
// and the pass finishes with a Sync so repairs are durable; if that Sync
// loses the write quorum the result carries it in SyncErr.
//
// A Lost track had no valid copy anywhere; the alternate superblock slot
// of a young database and allocation debris from a crashed commit are
// benign examples, damage on every arm is not. Lost tracks are counted,
// never invented.
func (tm *TrackManager) Scrub() ScrubResult {
	var res ScrubResult
	tm.mu.Lock()
	nArms := len(tm.arms)
	limit := tm.nTracks
	tm.mu.Unlock()
	// dirty[ri] counts invalid copies on arm ri that were NOT repaired.
	dirty := make([]uint64, nArms)
	for n := uint32(0); n < limit; n++ {
		tm.mu.Lock()
		repaired, lost, bad := tm.scrubTrackLocked(n)
		tm.mu.Unlock()
		res.Scanned++
		res.Repaired += repaired
		if lost {
			res.Lost++
		}
		for _, ri := range bad {
			dirty[ri]++
		}
	}
	tm.mu.Lock()
	for ri, a := range tm.arms {
		if ri < len(dirty) && dirty[ri] == 0 && a.state == ArmSuspect {
			tm.setStateLocked(ri, ArmHealthy, nil)
		}
	}
	tm.met.scrubPasses.Inc()
	tm.met.scrubScanned.Add(res.Scanned)
	tm.met.scrubRepaired.Add(res.Repaired)
	tm.met.scrubLost.Add(res.Lost)
	tm.mu.Unlock()
	// Failures inside Sync degrade the offending arm; the pass still
	// reports what it repaired, and a lost write quorum is surfaced in
	// SyncErr so callers never mistake an undurable pass for success.
	res.SyncErr = tm.Sync()
	return res
}

// scrubTrackLocked validates track n on every active arm, repairing
// damaged copies from the first valid one. It returns the number of
// repaired copies, whether the track is lost (no valid copy), and the
// arms left with unrepaired damage.
func (tm *TrackManager) scrubTrackLocked(n uint32) (repaired uint64, lost bool, bad []int) {
	active := tm.activeLocked()
	if len(active) == 0 {
		return 0, true, nil
	}
	golden := -1
	goldenBuf := make([]byte, tm.trackSize)
	buf := make([]byte, tm.trackSize)
	var invalid []int
	for _, ri := range active {
		dst := buf
		if golden < 0 {
			dst = goldenBuf
		}
		if err := tm.readRawLocked(ri, n, dst); err != nil {
			invalid = append(invalid, ri)
			continue
		}
		if golden < 0 {
			golden = ri
		}
	}
	if golden < 0 {
		return 0, true, invalid
	}
	for _, ri := range invalid {
		a := tm.arms[ri]
		if a.state == ArmDegraded { // degraded mid-pass by an earlier track
			continue
		}
		tm.seekLocked(a, n)
		if _, err := a.f.WriteAt(goldenBuf, int64(n)*int64(tm.trackSize)); err != nil {
			tm.degradeLocked(ri, fmt.Errorf("store: scrub repair of track %d failed: %w", n, err))
			bad = append(bad, ri)
			continue
		}
		a.repairs++
		repaired++
		tm.met.repairs.Inc()
		tm.met.writes.Inc()
		tm.met.bytesWritten.Add(uint64(tm.trackSize))
	}
	return repaired, false, bad
}

// Rebuild reconstructs one arm bit-for-bit from the surviving arms and
// reinstates it to healthy. The arm is made writable again first (state
// suspect), so commits running during the rebuild fan out to it; the copy
// loop then fills in history track by track under per-track locking, and
// the file is truncated to the allocation high-water mark so debris from
// torn writes cannot outlive the rebuild. On any copy failure the arm
// returns to degraded.
func (tm *TrackManager) Rebuild(ri int) error {
	tm.mu.Lock()
	if ri < 0 || ri >= len(tm.arms) {
		tm.mu.Unlock()
		return fmt.Errorf("store: no replica %d", ri)
	}
	if len(tm.activeLocked()) == 0 ||
		(len(tm.activeLocked()) == 1 && tm.activeLocked()[0] == ri && tm.arms[ri].state != ArmDegraded) {
		// Nothing valid to copy from would make this a destructive no-op.
		tm.mu.Unlock()
		return fmt.Errorf("store: rebuild replica %d: no healthy source arm", ri)
	}
	tm.setStateLocked(ri, ArmSuspect, nil)
	tm.arms[ri].lastErr = ""
	tm.mu.Unlock()

	for n := uint32(0); ; n++ {
		tm.mu.Lock()
		if n >= tm.nTracks {
			tm.mu.Unlock()
			break
		}
		err := tm.rebuildTrackLocked(ri, n)
		tm.mu.Unlock()
		if err != nil {
			return err
		}
	}

	tm.mu.Lock()
	defer tm.mu.Unlock()
	a := tm.arms[ri]
	if a.state == ArmDegraded { // a concurrent write failed mid-rebuild
		return fmt.Errorf("store: rebuild replica %d: arm failed during rebuild: %s", ri, a.lastErr)
	}
	if err := a.f.Truncate(int64(tm.nTracks) * int64(tm.trackSize)); err != nil {
		tm.degradeLocked(ri, err)
		return fmt.Errorf("store: rebuild replica %d: truncate: %w", ri, err)
	}
	if err := a.f.Sync(); err != nil {
		tm.degradeLocked(ri, err)
		return fmt.Errorf("store: rebuild replica %d: sync: %w", ri, err)
	}
	tm.setStateLocked(ri, ArmHealthy, nil)
	tm.met.rebuilds.Inc()
	return nil
}

// rebuildTrackLocked copies one track onto the rebuilding arm: from the
// first checksum-valid source arm, or — when no copy is valid (allocation
// debris, never-written alternate superblock slot) — verbatim from the
// first source arm holding bytes there, preserving bit-identity of the
// replica set. A track no source arm can read is skipped.
func (tm *TrackManager) rebuildTrackLocked(target int, n uint32) error {
	buf := make([]byte, tm.trackSize)
	src := -1
	for ri, a := range tm.arms {
		if ri == target || a.state == ArmDegraded {
			continue
		}
		if err := tm.readRawLocked(ri, n, buf); err == nil {
			src = ri
			break
		}
	}
	if src < 0 {
		// No valid copy: fall back to a verbatim (possibly damaged) image.
		for ri, a := range tm.arms {
			if ri == target || a.state == ArmDegraded {
				continue
			}
			if _, err := a.f.ReadAt(buf, int64(n)*int64(tm.trackSize)); err == nil {
				src = ri
				break
			}
		}
	}
	if src < 0 {
		return nil // nothing anywhere; the slot stays a hole
	}
	a := tm.arms[target]
	tm.seekLocked(a, n)
	if _, err := a.f.WriteAt(buf, int64(n)*int64(tm.trackSize)); err != nil {
		tm.degradeLocked(target, err)
		return fmt.Errorf("store: rebuild replica %d: write track %d: %w", target, n, err)
	}
	a.repairs++
	tm.met.repairs.Inc()
	tm.met.writes.Inc()
	tm.met.bytesWritten.Add(uint64(tm.trackSize))
	return nil
}
