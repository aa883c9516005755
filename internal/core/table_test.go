package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/object"
	"repro/internal/oop"
)

// TestSerialTableUnderConcurrentPublish drives the committed-object table
// the way commits and cache misses do: one writer publishes three versions
// of every serial in a range spanning many chunks, in serial order, so the
// directory grows while readers load. The readers also store a stale
// version ahead of the writer, as a miss that loaded from the store before
// the commit would. A serial published as version v must never read as
// nil or as anything older than v. Run it with -race.
func TestSerialTableUnderConcurrentPublish(t *testing.T) {
	const (
		serials  = 8 << chunkBits
		versions = 3
	)
	var table serialTable
	version := func(serial uint64, v int) *object.Object {
		return object.New(oop.FromSerial(serial), oop.Nil, object.SegmentID(v), object.FormatNamed)
	}
	// published counts the stores made: store i is version i/serials+1 of
	// serial i%serials+1.
	var published atomic.Int64
	var wg, started sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		started.Add(1)
		go func(seed int64) {
			defer wg.Done()
			started.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				p := published.Load()
				if p == serials*versions {
					return
				}
				if p < serials && rng.Intn(4) == 0 {
					// A miss just ahead of the writer's frontier.
					table.loadOrStore(version(uint64(p+1+rng.Int63n(64)), 0))
					continue
				}
				if p == 0 {
					continue
				}
				i := rng.Int63n(min(p, serials))
				serial := uint64(i + 1)
				// The newest version of serial among the first p stores.
				want := int((p-1-i)/serials) + 1
				ob := table.load(serial)
				switch {
				case ob == nil:
					errs <- errors.New("a published serial read as nil")
					return
				case int(ob.Seg) < want:
					errs <- errors.New("a published serial read an older version")
					return
				}
			}
		}(int64(r))
	}
	started.Wait()
	for v := 1; v <= versions; v++ {
		for serial := uint64(1); serial <= serials; serial++ {
			table.store(version(serial, v))
			published.Add(1)
			if serial%64 == 0 {
				runtime.Gosched()
			}
		}
		for serial := uint64(1); serial <= serials; serial++ {
			if ob := table.load(serial); ob == nil || int(ob.Seg) != v {
				t.Fatalf("after round %d serial %d reads %v, want version %d", v, serial, ob, v)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if table.load(serials*4) != nil || table.load(1<<40) != nil {
		t.Error("a serial never stored reads as an object")
	}
}

// TestDropTransientsKeepsWhatTheWorkspaceReaches: the roots are the
// workspace's pending values. An instance promoted into the workspace takes
// its transient class, and the class's transient method dictionary, with
// it; everything else goes, and a dropped transient no longer reads.
func TestDropTransientsKeepsWhatTheWorkspaceReaches(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	k := db.Kernel()
	class, err := s.NewObject(k.Class)
	if err != nil {
		t.Fatal(err)
	}
	dict, _ := s.NewObject(k.Dictionary)
	if err := s.Store(class, db.wk.methods, dict); err != nil {
		t.Fatal(err)
	}
	inst, _ := s.NewObject(class)
	garbage, _ := s.NewString("garbage")
	world, ok := s.Global("World")
	if !ok {
		t.Fatal("no World")
	}
	if err := s.Store(world, s.Symbol("inst"), inst); err != nil {
		t.Fatal(err)
	}
	s.DropTransients()
	// Storing inst into World promoted its class and the class's dictionary
	// with it, so only the garbage string was left to drop.
	if n := s.Transients(); n != 0 {
		t.Errorf("after the drop %d transients remain, want 0 (the class and its dictionary went to the workspace with inst)", n)
	}
	if got, err := s.ClassOf(inst); err != nil || got != class {
		t.Errorf("ClassOf(inst) = %v (%v), want %v", got, err, class)
	}
	if _, err := s.BytesOf(garbage); err == nil {
		t.Error("a dropped transient still reads")
	}
	s.Abort()
	s.DropTransients()
	if n := s.Transients(); n != 0 {
		t.Errorf("after an abort and a drop %d transients remain, want 0", n)
	}
}

// TestCommitWritesATransientClass: an instance of a class object that is
// still a transient commits its class with it, so another session can read
// the class (and what the class reaches) through the instance.
func TestCommitWritesATransientClass(t *testing.T) {
	db := openDB(t)
	s := sysSession(t, db)
	k := db.Kernel()
	class, err := s.NewObject(k.Class)
	if err != nil {
		t.Fatal(err)
	}
	dict, _ := s.NewObject(k.Dictionary)
	if err := s.Store(class, db.wk.methods, dict); err != nil {
		t.Fatal(err)
	}
	inst, _ := s.NewObject(class)
	world, ok := s.Global("World")
	if !ok {
		t.Fatal("no World")
	}
	if err := s.Store(world, s.Symbol("inst"), inst); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := sysSession(t, db)
	got, ok, err := s2.Fetch(world, s2.Symbol("inst"))
	if err != nil || !ok || got != inst {
		t.Fatalf("World at: #inst = %v, %v, %v; want %v", got, ok, err, inst)
	}
	cls, err := s2.ClassOf(inst)
	if err != nil || cls != class {
		t.Fatalf("ClassOf(inst) = %v (%v), want %v", cls, err, class)
	}
	methods, ok, err := s2.Fetch(cls, db.wk.methods)
	if err != nil || !ok || methods != dict {
		t.Errorf("class methods from a second session = %v, %v, %v; want %v", methods, ok, err, dict)
	}
}
