package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/oop"
)

// The crash-image harness models a power cut, in the style of
// ALICE/CrashMonkey. A recording device logs every WriteAt and Sync each
// replica arm receives while a seeded workload of commit groups runs. At
// each Sync barrier the harness builds crash images: the state the arm had
// made durable, plus one of a prefix of the writes issued since, all of
// them but one, or one of them torn at 512 bytes. Every arm picks its image
// independently. Each image is reopened with Open and checked against a
// model of what was acknowledged:
//
//   - it opens, and every degraded arm says why;
//   - Meta().LastTime is the last acknowledged time or the in-flight
//     group's time;
//   - every acknowledged object loads equal, and the in-flight group is
//     all there or all absent;
//   - Scrub leaves no unrepaired damage.
//
// Some images are reopened once more and take the next commit, which
// reuses the rolled-back group's tracks and epoch, and a second crash is
// enumerated inside it.

const (
	crashTrackSize = 1024
	crashTornAt    = 512
)

// memFile is an in-memory ReplicaFile: the harness builds and reopens
// thousands of images, and none of them needs a disk.
type memFile struct {
	mu sync.Mutex
	b  []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.b = writeBytes(f.b, off, p)
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Stat() (os.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return memInfo(len(f.b)), nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < int64(len(f.b)) {
		f.b = f.b[:size]
	} else {
		f.b = writeBytes(f.b, size, nil)
	}
	return nil
}

func (f *memFile) Close() error { return nil }

func writeBytes(b []byte, off int64, p []byte) []byte {
	if end := int(off) + len(p); end > len(b) {
		b = append(b, make([]byte, end-len(b))...)
	}
	copy(b[off:], p)
	return b
}

type memInfo int64

func (m memInfo) Name() string       { return "replica" }
func (m memInfo) Size() int64        { return int64(m) }
func (m memInfo) Mode() os.FileMode  { return 0o644 }
func (m memInfo) ModTime() time.Time { return time.Time{} }
func (m memInfo) IsDir() bool        { return false }
func (m memInfo) Sys() any           { return nil }

// crashOp is one recorded device operation; data is nil for a Sync.
type crashOp struct {
	off  int64
	data []byte
}

// recFile is a memFile that records every WriteAt and Sync it receives.
type recFile struct {
	memFile
	ops []crashOp // guarded by memFile.mu
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, crashOp{off: off, data: append([]byte(nil), p...)})
	f.b = writeBytes(f.b, off, p)
	return len(p), nil
}

func (f *recFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, crashOp{off: -1})
	return nil
}

func (f *recFile) syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, op := range f.ops {
		if op.data == nil {
			n++
		}
	}
	return n
}

// openImage opens a store over in-memory arm images (not copied).
func openImage(arms []ReplicaFile) (*Store, error) {
	return Open("crash", Options{
		TrackSize: crashTrackSize,
		Replicas:  len(arms),
		OpenReplica: func(_ string, replica int) (ReplicaFile, error) {
			return arms[replica], nil
		},
	})
}

// crashModel is what the database must hold after a list of commits.
type crashModel struct {
	lastTime oop.Time
	next     uint64
	root     oop.OOP
	objs     map[uint64][]byte // serial -> encoded record
	archived map[uint64]bool
}

func modelOf(commits []Commit) crashModel {
	m := crashModel{next: 1, root: oop.Invalid, objs: map[uint64][]byte{}, archived: map[uint64]bool{}}
	for _, c := range commits {
		for _, ob := range c.Objects {
			m.objs[ob.OOP.Serial()] = EncodeObject(nil, ob)
		}
		for _, serial := range c.ArchiveSerials {
			m.archived[serial] = true
		}
		if c.Time > m.lastTime {
			m.lastTime = c.Time
		}
		if c.NextSerial > m.next {
			m.next = c.NextSerial
		}
		if c.Root != oop.Invalid {
			m.root = c.Root
		}
	}
	return m
}

// crashWorkload builds a seeded sequence of commit groups: updates and
// new objects, named and byte objects, some byte objects spanning three
// tracks, and one archival.
func crashWorkload(seed int64, groups int) []Commit {
	r := rand.New(rand.NewSource(seed))
	next := uint64(1)
	var live []uint64
	archived := false
	var out []Commit
	for i := 0; i < groups; i++ {
		t := oop.Time(i + 1)
		if !archived && i >= groups/2 && len(live) > 2 {
			archived = true
			k := r.Intn(len(live))
			serial := live[k]
			live = append(live[:k], live[k+1:]...)
			out = append(out, Commit{Time: t, NextSerial: next, ArchiveSerials: []uint64{serial}})
			continue
		}
		c := Commit{Time: t}
		touched := map[uint64]bool{}
		for n := 1 + r.Intn(3); n > 0; n-- {
			serial := next
			if len(live) > 0 && r.Intn(3) > 0 {
				serial = live[r.Intn(len(live))]
			}
			if touched[serial] {
				continue
			}
			touched[serial] = true
			if serial == next {
				next++
				live = append(live, serial)
			}
			c.Objects = append(c.Objects, crashObject(r, serial, t))
		}
		if i == 0 {
			c.Root = oop.FromSerial(1)
		}
		c.NextSerial = next
		out = append(out, c)
	}
	return out
}

func crashObject(r *rand.Rand, serial uint64, t oop.Time) *object.Object {
	if serial%3 == 0 {
		ob := object.New(oop.FromSerial(serial), oop.FromSerial(2), 0, object.FormatBytes)
		b := make([]byte, 200+r.Intn(2600)) // up to three tracks
		r.Read(b)
		if err := ob.SetBytes(t, b); err != nil {
			panic(err)
		}
		return ob
	}
	ob := object.New(oop.FromSerial(serial), oop.FromSerial(1), 3, object.FormatNamed)
	for i := 1; i <= 1+r.Intn(6); i++ {
		if err := ob.Store(sym(uint64(i)), t, oop.MustInt(r.Int63n(1<<40))); err != nil {
			panic(err)
		}
	}
	return ob
}

// crashRun is one recorded run: the arms' logs, and for each commit the
// Sync counts on either side of it.
type crashRun struct {
	base  [][]byte
	arms  []*recFile
	spans [][2]int // commit i is in flight in windows [spans[i][0], spans[i][1])
}

// record opens a store over base (nil: empty arms), runs commits, and
// returns the log.
func record(t *testing.T, base [][]byte, replicas int, commits []Commit) *crashRun {
	t.Helper()
	run := &crashRun{base: base}
	files := make([]ReplicaFile, replicas)
	for i := range files {
		f := &recFile{}
		if base != nil {
			f.b = append([]byte(nil), base[i]...)
		} else {
			run.base = append(run.base, nil)
		}
		run.arms = append(run.arms, f)
		files[i] = f
	}
	s, err := openImage(files)
	if err != nil {
		t.Fatalf("recording run: open: %v", err)
	}
	defer s.Close()
	for _, c := range commits {
		before := run.syncs()
		if c.ArchiveSerials != nil {
			oops := make([]oop.OOP, len(c.ArchiveSerials))
			for i, serial := range c.ArchiveSerials {
				oops[i] = oop.FromSerial(serial)
			}
			err = s.Archive(c.Time, oops)
		} else {
			err = s.Apply(c)
		}
		if err != nil {
			t.Fatalf("recording run: commit at %d: %v", c.Time, err)
		}
		run.spans = append(run.spans, [2]int{before, run.syncs()})
	}
	return run
}

// syncs is the number of Sync barriers so far: every active arm receives
// each one, and an arm degraded at open receives none.
func (run *crashRun) syncs() int {
	n := 0
	for _, a := range run.arms {
		if k := a.syncs(); k > n {
			n = k
		}
	}
	return n
}

// choice is one arm's crash image inside a window of m writes.
type choice struct {
	kind string // "prefix", "all but", "torn after prefix", "torn among all"
	j    int
}

func (c choice) describe(m int) string {
	switch c.kind {
	case "prefix":
		return fmt.Sprintf("prefix %d of %d", c.j, m)
	case "all but":
		return fmt.Sprintf("all but #%d of %d", c.j, m)
	case "torn after prefix":
		return fmt.Sprintf("prefix %d of %d, then #%d torn at %d B", c.j, m, c.j, crashTornAt)
	}
	return fmt.Sprintf("all %d, #%d torn at %d B", m, c.j, crashTornAt)
}

func choicesFor(m int) []choice {
	var out []choice
	for j := 0; j <= m; j++ {
		out = append(out, choice{"prefix", j})
	}
	for j := 0; j < m && m > 1; j++ {
		out = append(out, choice{"all but", j})
	}
	for j := 0; j < m; j++ {
		out = append(out, choice{"torn after prefix", j}, choice{"torn among all", j})
	}
	return out
}

// apply lays the chosen subset of pending onto img.
func (c choice) apply(img []byte, pending []crashOp) []byte {
	for i, op := range pending {
		switch {
		case c.kind == "prefix" && i < c.j,
			c.kind == "all but" && i != c.j,
			c.kind == "torn after prefix" && i < c.j,
			c.kind == "torn among all" && i != c.j:
			img = writeBytes(img, op.off, op.data)
		case (c.kind == "torn after prefix" || c.kind == "torn among all") && i == c.j:
			d := op.data
			if len(d) > crashTornAt {
				d = d[:crashTornAt]
			}
			img = writeBytes(img, op.off, d)
		}
	}
	return img
}

// crashImage is one enumerated image with the truth it is checked against.
type crashImage struct {
	arms     [][]byte
	acked    []Commit
	inflight *Commit
	schedule string
}

// window is everything the images of one window share.
type window struct {
	w        int
	cur      [][]byte    // each arm's durable state at the barrier
	pending  [][]crashOp // each arm's writes after the barrier
	acked    []Commit
	inflight *Commit
	label    string
}

// windows walks a recorded run barrier by barrier. prior is the list of
// commits acknowledged before the run started.
func (run *crashRun) windows(t *testing.T, prior, commits []Commit, label string, fn func(window)) {
	t.Helper()
	total := run.syncs()
	cur := make([][]byte, len(run.arms))
	pos := make([]int, len(run.arms))
	for i := range cur {
		cur[i] = append([]byte(nil), run.base[i]...)
	}
	for w := 0; w <= total; w++ {
		win := window{w: w, cur: cur, pending: make([][]crashOp, len(run.arms)), acked: append([]Commit(nil), prior...), label: label}
		for i, a := range run.arms {
			for pos[i] < len(a.ops) && a.ops[pos[i]].data != nil {
				win.pending[i] = append(win.pending[i], a.ops[pos[i]])
				pos[i]++
			}
		}
		for k, sp := range run.spans {
			switch {
			case sp[1] <= w:
				win.acked = append(win.acked, commits[k])
			case sp[0] <= w:
				win.inflight = &commits[k]
			}
		}
		fn(win)
		for i := range cur {
			for _, op := range win.pending[i] {
				cur[i] = writeBytes(cur[i], op.off, op.data)
			}
			if pos[i] < len(run.arms[i].ops) {
				pos[i]++ // the Sync that closes the window
			}
		}
	}
	for i, a := range run.arms {
		if pos[i] != len(a.ops) {
			t.Fatalf("%s: arm %d has %d ops past the last barrier", label, i, len(a.ops)-pos[i])
		}
	}
}

// images enumerates the window's images: every choice when one arm,
// otherwise the same choice on every arm plus samples of independent
// choices drawn from r.
func (win window) images(r *rand.Rand, samples int, fn func(crashImage, []choice)) {
	n := len(win.cur)
	per := make([][]choice, n)
	for i := range per {
		per[i] = choicesFor(len(win.pending[i]))
	}
	emit := func(pick []choice) {
		img := crashImage{acked: win.acked, inflight: win.inflight}
		var sched []string
		for i, c := range pick {
			img.arms = append(img.arms, c.apply(append([]byte(nil), win.cur[i]...), win.pending[i]))
			sched = append(sched, fmt.Sprintf("arm%d %s", i, c.describe(len(win.pending[i]))))
		}
		inflight := "none"
		if win.inflight != nil {
			inflight = fmt.Sprintf("the commit at time %d", win.inflight.Time)
		}
		img.schedule = fmt.Sprintf("%s window %d (in flight: %s): %s", win.label, win.w, inflight, strings.Join(sched, "; "))
		fn(img, pick)
	}
	if n == 1 {
		for _, c := range per[0] {
			emit([]choice{c})
		}
		return
	}
	for k := 0; ; k++ {
		pick := make([]choice, n)
		ok := true
		for i := range pick {
			if k >= len(per[i]) {
				ok = false
				break
			}
			pick[i] = per[i][k]
		}
		if !ok {
			break
		}
		emit(pick)
	}
	for k := 0; k < samples; k++ {
		pick := make([]choice, n)
		for i := range pick {
			pick[i] = per[i][r.Intn(len(per[i]))]
		}
		emit(pick)
	}
}

// check reopens an image and holds it to the model. It returns the
// commits the recovered database holds, or a description of the failure.
func (img crashImage) check() ([]Commit, error) {
	files := make([]ReplicaFile, len(img.arms))
	for i, b := range img.arms {
		files[i] = &memFile{b: append([]byte(nil), b...)}
	}
	s, err := openImage(files)
	if err != nil {
		return nil, fmt.Errorf("does not open: %v", err)
	}
	defer s.Close()
	active := 0
	for _, h := range s.Health() {
		if h.State == "degraded" {
			if h.LastError == "" {
				return nil, fmt.Errorf("arm %d degraded without a reason", h.Replica)
			}
			continue
		}
		active++
	}
	if active == 0 {
		return nil, errors.New("every arm degraded")
	}
	held := img.acked
	ack := modelOf(img.acked)
	meta := s.Meta()
	switch {
	case meta.LastTime == ack.lastTime:
	case img.inflight != nil && meta.LastTime == img.inflight.Time:
		held = append(append([]Commit(nil), img.acked...), *img.inflight)
	default:
		return nil, fmt.Errorf("LastTime %d is neither the acknowledged %d nor the in-flight group's", meta.LastTime, ack.lastTime)
	}
	want := modelOf(held)
	if meta.NextSerial != want.next || meta.Root != want.root {
		return nil, fmt.Errorf("meta %+v, want NextSerial %d Root %v", meta, want.next, want.root)
	}
	all := modelOf(append(append([]Commit(nil), img.acked...), inflightList(img.inflight)...))
	serials := make([]uint64, 0, len(all.objs))
	for serial := range all.objs {
		serials = append(serials, serial)
	}
	sort.Slice(serials, func(a, b int) bool { return serials[a] < serials[b] })
	for _, serial := range serials {
		o := oop.FromSerial(serial)
		rec, ok := want.objs[serial]
		switch {
		case want.archived[serial]:
			if _, err := s.Load(o); !errors.Is(err, ErrArchived) {
				return nil, fmt.Errorf("archived %v loads with %v, want ErrArchived", o, err)
			}
		case !ok:
			if s.Exists(o) {
				return nil, fmt.Errorf("%v of a group that did not land exists", o)
			}
		default:
			got, err := s.Load(o)
			if err != nil {
				return nil, fmt.Errorf("load %v: %v", o, err)
			}
			if !bytes.Equal(EncodeObject(nil, got), rec) {
				return nil, fmt.Errorf("%v loads a different version", o)
			}
		}
	}
	res := s.Scrub()
	allowLost := uint64(0)
	if meta.Epoch == 1 {
		allowLost = 1 // the second superblock slot of a new database is never written
	}
	if res.Lost > allowLost || res.SyncErr != nil {
		return nil, fmt.Errorf("scrub: %d tracks lost, sync error %v", res.Lost, res.SyncErr)
	}
	if res2 := s.Scrub(); res2.Repaired != 0 || res2.Lost != res.Lost {
		return nil, fmt.Errorf("second scrub repaired %d and lost %d: damage left after the first", res2.Repaired, res2.Lost)
	}
	return held, nil
}

func inflightList(c *Commit) []Commit {
	if c == nil {
		return nil
	}
	return []Commit{*c}
}

// retryCommit is the first commit after a recovery: it rewrites objects of
// the commit that was in flight (new contents, so the group's tracks
// differ) at the next time, so it reuses a rolled-back group's tracks and
// epoch.
func retryCommit(held []Commit, inflight Commit) Commit {
	m := modelOf(held)
	r := rand.New(rand.NewSource(int64(inflight.Time)))
	c := Commit{Time: m.lastTime + 1, NextSerial: m.next}
	for _, ob := range inflight.Objects {
		if serial := ob.OOP.Serial(); serial < m.next && !m.archived[serial] {
			c.Objects = append(c.Objects, crashObject(r, serial, c.Time))
		}
	}
	c.Objects = append(c.Objects, crashObject(r, m.next, c.Time))
	c.NextSerial = m.next + 1
	return c
}

// TestCrashImagesRecoverToAnAcknowledgedPrefix runs the harness for one
// and three replicas: every image of every window of the workload, and a
// second crash in the commit after recovering from a first crash that
// left a superblock over an incomplete group.
func TestCrashImagesRecoverToAnAcknowledgedPrefix(t *testing.T) {
	for _, tc := range []struct {
		replicas, groups, samples, second int
	}{
		{replicas: 1, groups: 40, samples: 0, second: 2},
		{replicas: 3, groups: 36, samples: 48, second: 3},
	} {
		t.Run(fmt.Sprintf("replicas=%d", tc.replicas), func(t *testing.T) {
			const seed = 58
			commits := crashWorkload(seed, tc.groups)
			run := record(t, nil, tc.replicas, commits)
			r := rand.New(rand.NewSource(seed))
			var first, second, landed, rolledBack, failures int
			fail := func(img crashImage, err error) {
				failures++
				t.Errorf("%s: %v", img.schedule, err)
				if failures >= 5 {
					t.FailNow()
				}
			}
			run.windows(t, nil, commits, "first crash", func(win window) {
				win.images(r, tc.samples, func(img crashImage, pick []choice) {
					first++
					held, err := img.check()
					if err != nil {
						fail(img, err)
						return
					}
					if img.inflight != nil && len(held) > len(img.acked) {
						landed++
					} else if img.inflight != nil {
						rolledBack++
					}
					// Second crash: after an image whose in-flight group
					// wrote its superblock but lost its first track (so
					// recovery rejects that superblock), in every few
					// windows.
					if img.inflight == nil || win.w%tc.second != 0 || len(held) != len(img.acked) {
						return
					}
					for _, c := range pick {
						if c.kind != "all but" || c.j != 0 {
							return
						}
					}
					retry := retryCommit(held, *img.inflight)
					run2 := record(t, img.arms, tc.replicas, []Commit{retry})
					run2.windows(t, held, []Commit{retry}, img.schedule+"; then second crash", func(win2 window) {
						win2.images(r, tc.samples/2, func(img2 crashImage, _ []choice) {
							second++
							if _, err := img2.check(); err != nil {
								fail(img2, err)
							}
						})
					})
				})
			})
			t.Logf("%d first-crash images (in-flight group landed in %d, rolled back in %d), %d second-crash images", first, landed, rolledBack, second)
		})
	}
}
