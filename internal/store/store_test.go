package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/object"
	"repro/internal/oop"
)

func sym(i uint64) oop.OOP { return oop.FromSerial(1000 + i) }

func namedObj(serial uint64, writes int) *object.Object {
	ob := object.New(oop.FromSerial(serial), oop.FromSerial(1), 3, object.FormatNamed)
	for i := 1; i <= writes; i++ {
		if err := ob.Store(sym(uint64(i%4)), oop.Time(i), oop.MustInt(int64(i*10))); err != nil {
			panic(err)
		}
	}
	return ob
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ob := namedObj(7, 9)
	raw := EncodeObject(nil, ob)
	back, err := DecodeObject(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.OOP != ob.OOP || back.Class != ob.Class || back.Seg != ob.Seg || back.Format != ob.Format {
		t.Error("header mismatch")
	}
	if !back.EquivalentAt(ob, oop.TimeNow) {
		t.Error("current state mismatch")
	}
	for tm := oop.Time(1); tm <= 9; tm++ {
		if !back.EquivalentAt(ob, tm) {
			t.Errorf("state at %v mismatch", tm)
		}
	}
}

func TestEncodeDecodeBytes(t *testing.T) {
	ob := object.New(oop.FromSerial(8), oop.FromSerial(2), 0, object.FormatBytes)
	_ = ob.SetBytes(1, []byte("first version"))
	_ = ob.SetBytes(4, bytes.Repeat([]byte("x"), 10000))
	raw := EncodeObject(nil, ob)
	back, err := DecodeObject(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := back.BytesAt(2); !ok || string(b) != "first version" {
		t.Error("old byte version lost")
	}
	if back.ByteLen() != 10000 {
		t.Error("current byte version lost")
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := EncodeObject(nil, namedObj(7, 5))
	for cut := 0; cut < len(raw); cut += 3 {
		if _, err := DecodeObject(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := DecodeObject(bad); err == nil {
		t.Error("bad magic not detected")
	}
}

func TestDecodeProperty(t *testing.T) {
	// Random byte strings must never panic the decoder.
	f := func(b []byte) bool {
		_, _ = DecodeObject(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func openTemp(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func TestCommitLoad(t *testing.T) {
	s, _ := openTemp(t, Options{TrackSize: 1024})
	defer s.Close()
	ob := namedObj(1, 3)
	root := ob.OOP
	if err := s.Apply(Commit{Objects: []*object.Object{ob}, Root: root, NextSerial: 2, Time: 3}); err != nil {
		t.Fatal(err)
	}
	m := s.Meta()
	if m.Root != root || m.LastTime != 3 || m.NextSerial != 2 {
		t.Errorf("meta = %+v", m)
	}
	got, err := s.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EquivalentAt(ob, oop.TimeNow) {
		t.Error("loaded object differs")
	}
	if _, err := s.Load(oop.FromSerial(99)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object: %v", err)
	}
	if !s.Exists(root) || s.Exists(oop.FromSerial(99)) {
		t.Error("Exists wrong")
	}
}

func TestReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{TrackSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var obs []*object.Object
	for i := uint64(1); i <= 50; i++ {
		obs = append(obs, namedObj(i, int(i%7)+1))
	}
	if err := s.Apply(Commit{Objects: obs, Root: obs[0].OOP, NextSerial: 51, Time: 9}); err != nil {
		t.Fatal(err)
	}
	// Second commit updates a few.
	upd := []*object.Object{namedObj(3, 12), namedObj(17, 12)}
	if err := s.Apply(Commit{Objects: upd, NextSerial: 51, Time: 10}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{TrackSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m := s2.Meta()
	if m.LastTime != 10 || m.NextSerial != 51 || m.Root != obs[0].OOP {
		t.Errorf("recovered meta = %+v", m)
	}
	for i := uint64(1); i <= 50; i++ {
		got, err := s2.Load(oop.FromSerial(i))
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		want := obs[i-1]
		if i == 3 || i == 17 {
			want = namedObj(i, 12)
		}
		if !got.EquivalentAt(want, oop.TimeNow) {
			t.Errorf("object %d state differs after reopen", i)
		}
	}
}

func TestLargeObjectSpansTracks(t *testing.T) {
	// Past the ST80 64KB limit (experiment C8): a multi-track byte object.
	s, _ := openTemp(t, Options{TrackSize: 1024})
	defer s.Close()
	big := object.New(oop.FromSerial(1), oop.FromSerial(2), 0, object.FormatBytes)
	payload := bytes.Repeat([]byte("GemStone "), 40000) // 360 KB
	_ = big.SetBytes(1, payload)
	if err := s.Apply(Commit{Objects: []*object.Object{big}, NextSerial: 2, Time: 1}); err != nil {
		t.Fatal(err)
	}
	s.TrackManager().DropCache()
	got, err := s.Load(big.OOP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Error("spanning object corrupted")
	}
}

func TestCrashAtEveryStepIsAtomic(t *testing.T) {
	steps := []string{"before-data", "after-data", "after-table", "after-directory", "before-superblock"}
	for _, step := range steps {
		step := step
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			crash := ""
			opts := Options{TrackSize: 1024, FailPoint: func(s string) error {
				if s == crash {
					return errors.New("injected")
				}
				return nil
			}}
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			base := namedObj(1, 2)
			if err := s.Apply(Commit{Objects: []*object.Object{base}, Root: base.OOP, NextSerial: 2, Time: 1}); err != nil {
				t.Fatal(err)
			}
			// Now crash during the second commit.
			crash = step
			upd := namedObj(1, 6)
			newObj := namedObj(2, 4)
			err = s.Apply(Commit{Objects: []*object.Object{upd, newObj}, NextSerial: 3, Time: 2})
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("expected injected crash, got %v", err)
			}
			s.Close()

			// Reopen: the first commit's state must be fully intact, the
			// second invisible.
			s2, err := Open(dir, Options{TrackSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			m := s2.Meta()
			if m.LastTime != 1 || m.NextSerial != 2 {
				t.Errorf("crashed commit leaked into meta: %+v", m)
			}
			got, err := s2.Load(oop.FromSerial(1))
			if err != nil {
				t.Fatal(err)
			}
			if !got.EquivalentAt(base, oop.TimeNow) {
				t.Error("crashed commit corrupted object 1")
			}
			if s2.Exists(oop.FromSerial(2)) {
				t.Error("object from crashed commit visible")
			}
			// And the store must accept new commits after recovery.
			if err := s2.Apply(Commit{Objects: []*object.Object{namedObj(1, 8)}, NextSerial: 2, Time: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReplicaFallback(t *testing.T) {
	s, _ := openTemp(t, Options{TrackSize: 1024, Replicas: 3})
	defer s.Close()
	ob := namedObj(1, 3)
	if err := s.Apply(Commit{Objects: []*object.Object{ob}, NextSerial: 2, Time: 1}); err != nil {
		t.Fatal(err)
	}
	tm := s.TrackManager()
	// Damage the object's data track on the primary AND second replica.
	for n := uint32(2); n < tm.Tracks(); n++ {
		if err := tm.DamageTrack(0, n); err != nil {
			t.Fatal(err)
		}
		if err := tm.DamageTrack(1, n); err != nil {
			t.Fatal(err)
		}
	}
	tm.DropCache()
	got, err := s.Load(ob.OOP)
	if err != nil {
		t.Fatalf("load with two damaged replicas: %v", err)
	}
	if !got.EquivalentAt(ob, oop.TimeNow) {
		t.Error("fallback returned wrong data")
	}
	if tm.Stats().ReplicaFallbacks == 0 {
		t.Error("expected replica fallbacks to be counted")
	}
	// The salvaged read must have healed the damaged arms in place
	// (read-repair), so a load served by the primary alone succeeds even
	// with the last replica gone too.
	if tm.Stats().ReadRepairs == 0 {
		t.Error("expected read-repair to heal the damaged arms")
	}
	for n := uint32(2); n < tm.Tracks(); n++ {
		_ = tm.DamageTrack(2, n)
	}
	tm.DropCache()
	if _, err := s.Load(ob.OOP); err != nil {
		t.Errorf("load after read-repair with replica 2 damaged: %v", err)
	}
	// Damaging every replica at once must surface an error, not bad data.
	for n := uint32(2); n < tm.Tracks(); n++ {
		for ri := 0; ri < 3; ri++ {
			_ = tm.DamageTrack(ri, n)
		}
	}
	tm.DropCache()
	if _, err := s.Load(ob.OOP); err == nil {
		t.Error("all replicas damaged: expected error")
	}
}

func TestArchive(t *testing.T) {
	s, _ := openTemp(t, Options{TrackSize: 1024})
	defer s.Close()
	ob := namedObj(1, 3)
	keep := namedObj(2, 3)
	if err := s.Apply(Commit{Objects: []*object.Object{ob, keep}, NextSerial: 3, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Archive(2, []oop.OOP{ob.OOP}); err != nil {
		t.Fatal(err)
	}
	// Still loadable while the archive is attached.
	if _, err := s.Load(ob.OOP); err != nil {
		t.Fatalf("archived object with medium attached: %v", err)
	}
	s.DetachArchive()
	if _, err := s.Load(ob.OOP); !errors.Is(err, ErrArchived) {
		t.Errorf("detached archive: %v", err)
	}
	if _, err := s.Load(keep.OOP); err != nil {
		t.Errorf("unarchived object affected: %v", err)
	}
}

func TestManyObjectsPastST80Limit(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	// 100,000 objects: past ST80's 32K-object ceiling (experiment C8).
	s, _ := openTemp(t, Options{TrackSize: 8192})
	defer s.Close()
	const n = 100_000
	batch := make([]*object.Object, 0, 10_000)
	for i := uint64(1); i <= n; i++ {
		ob := object.New(oop.FromSerial(i), oop.FromSerial(1), 0, object.FormatNamed)
		_ = ob.Store(sym(1), 1, oop.MustInt(int64(i)))
		batch = append(batch, ob)
		if len(batch) == cap(batch) {
			if err := s.Apply(Commit{Objects: batch, NextSerial: i + 1, Time: oop.Time(i/uint64(cap(batch)) + 1)}); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for _, i := range []uint64{1, 32768, 65536, 99999, 100000} {
		got, err := s.Load(oop.FromSerial(i))
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if v, _ := got.Fetch(sym(1)); v != oop.MustInt(int64(i)) {
			t.Errorf("object %d corrupted", i)
		}
	}
}

func TestWriteRunElevatorOrder(t *testing.T) {
	s, _ := openTemp(t, Options{TrackSize: 1024})
	defer s.Close()
	tm := s.TrackManager()
	first := tm.Allocate(10)
	var run []TrackWrite
	for i := 9; i >= 0; i-- { // presented in reverse
		run = append(run, TrackWrite{Track: first + uint32(i), Payload: []byte{byte(i)}})
	}
	tm.ResetStats()
	if err := tm.WriteRun(run); err != nil {
		t.Fatal(err)
	}
	st := tm.Stats()
	// Sorted ascending, the total seek distance within the group is 9 plus
	// the initial seek; unsorted it could be up to 81.
	if st.SeekDistance > uint64(first)+9 {
		t.Errorf("seek distance %d suggests unsorted writes", st.SeekDistance)
	}
}

func TestTrackPayloadTooLarge(t *testing.T) {
	s, _ := openTemp(t, Options{TrackSize: 1024})
	defer s.Close()
	tm := s.TrackManager()
	n := tm.Allocate(1)
	if err := tm.WriteTrack(n, make([]byte, tm.PayloadSize()+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestOpenBadTrackSize(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{TrackSize: 64}); err == nil {
		t.Error("tiny track size accepted")
	}
}

func TestStoreSweepProperty(t *testing.T) {
	// Property: after any sequence of commits, every object reads back as
	// its latest committed version.
	f := func(seed []uint8) bool {
		dir := t.TempDir()
		s, err := Open(dir, Options{TrackSize: 1024})
		if err != nil {
			return false
		}
		defer s.Close()
		latest := map[uint64]*object.Object{}
		tm := oop.Time(0)
		for _, r := range seed {
			serial := uint64(r%10) + 1
			tm++
			ob := namedObj(serial, int(r%5)+1)
			latest[serial] = ob
			if err := s.Apply(Commit{Objects: []*object.Object{ob}, NextSerial: 11, Time: tm}); err != nil {
				return false
			}
		}
		for serial, want := range latest {
			got, err := s.Load(oop.FromSerial(serial))
			if err != nil || !got.EquivalentAt(want, oop.TimeNow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCommitByBatchSize(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{TrackSize: 8192})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				objs := make([]*object.Object, batch)
				for j := range objs {
					objs[j] = namedObj(uint64(j)+1, 3)
				}
				if err := s.Apply(Commit{Objects: objs, NextSerial: uint64(batch) + 1, Time: oop.Time(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTrackSizeMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{TrackSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Apply(Commit{Objects: []*object.Object{namedObj(1, 1)}, NextSerial: 2, Time: 1})
	s.Close()
	_, err = Open(dir, Options{TrackSize: 4096})
	if err == nil {
		t.Fatal("mismatched track size accepted")
	}
	if !strings.Contains(err.Error(), "track size 1024") {
		t.Errorf("unhelpful error: %v", err)
	}
	// The correct size still opens.
	s2, err := Open(dir, Options{TrackSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// Property: arbitrary monotone object states round-trip through the full
// encode → track store → decode pipeline with all history intact.
func TestSerializeStoreRoundTripProperty(t *testing.T) {
	f := func(elems []uint8, writes []uint8) bool {
		ob := object.New(oop.FromSerial(1), oop.FromSerial(2), 1, object.FormatNamed)
		tm := oop.Time(0)
		for i, w := range writes {
			tm++
			name := sym(0)
			if len(elems) > 0 {
				name = sym(uint64(elems[i%len(elems)]) % 7)
			}
			if ob.Store(name, tm, oop.MustInt(int64(w))) != nil {
				return false
			}
		}
		raw := EncodeObject(nil, ob)
		back, err := DecodeObject(raw)
		if err != nil {
			return false
		}
		for q := oop.Time(0); q <= tm+1; q++ {
			if !back.EquivalentAt(ob, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
