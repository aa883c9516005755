package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/oop"
)

// counters attaches an obs registry to m, the one place its outcome
// counts are kept.
func counters(m *Manager) *obs.Registry {
	reg := obs.NewRegistry()
	m.Instrument(reg)
	return reg
}

func set(oops ...uint64) map[oop.OOP]struct{} {
	m := make(map[oop.OOP]struct{}, len(oops))
	for _, s := range oops {
		m[oop.FromSerial(s)] = struct{}{}
	}
	return m
}

func TestCommitAssignsIncreasingTimes(t *testing.T) {
	m := NewManager(5, nil)
	for want := oop.Time(6); want <= 10; want++ {
		tx := m.Begin()
		got, err := m.Commit(tx, set(1), set(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("commit time = %v, want %v", got, want)
		}
	}
	if m.LastCommitted() != 10 {
		t.Errorf("LastCommitted = %v", m.LastCommitted())
	}
}

func TestReadWriteConflict(t *testing.T) {
	m := NewManager(0, nil)
	reg := counters(m)
	t1 := m.Begin()
	t2 := m.Begin()
	if _, err := m.Commit(t1, set(1), set(1), nil); err != nil {
		t.Fatal(err)
	}
	// t2 read object 1, which t1 wrote after t2's snapshot.
	if _, err := m.Commit(t2, set(1), set(2), nil); !errors.Is(err, ErrConflict) {
		t.Errorf("expected conflict, got %v", err)
	}
	st := reg.Snapshot()
	if st.Counter("txn.conflicts.read") != 1 || st.Counter("txn.commits") != 1 || st.Counter("txn.begun") != 2 {
		t.Errorf("counters:\n%s", st)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager(0, nil)
	t1 := m.Begin()
	t2 := m.Begin()
	if _, err := m.Commit(t1, nil, set(7), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(t2, nil, set(7), nil); !errors.Is(err, ErrConflict) {
		t.Errorf("expected write-write conflict, got %v", err)
	}
}

// TestConflictErrorUnchanged pins the conflict chosen by the recent-writer
// index to the one the original newest-first, serial-ascending log scan
// reported: the newest clashing commit wins, the lowest serial breaks
// ties, and a read clash outranks a write clash on the same OOP.
func TestConflictErrorUnchanged(t *testing.T) {
	history := func() (*Manager, Txn) {
		m := NewManager(0, nil)
		victim := m.Begin()
		t1 := m.Begin()
		if _, err := m.Commit(t1, nil, set(5), nil); err != nil {
			t.Fatal(err)
		}
		t2 := m.Begin()
		if _, err := m.Commit(t2, nil, set(3, 7), nil); err != nil {
			t.Fatal(err)
		}
		return m, victim
	}

	// Newest clashing commit (time 2), lowest serial (3), write-write.
	m, victim := history()
	_, err := m.Commit(victim, set(7), set(3, 5), nil)
	want := fmt.Errorf("%w: write-write on %v at %v after snapshot %v",
		ErrConflict, oop.FromSerial(3), oop.Time(2), oop.Time(0))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("err = %v, want %v", err, want)
	}

	// Same OOP read and written: the read clash is reported.
	m, victim = history()
	_, err = m.Commit(victim, set(7), set(7, 9), nil)
	want = fmt.Errorf("%w: %v written at %v after snapshot %v",
		ErrConflict, oop.FromSerial(7), oop.Time(2), oop.Time(0))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("err = %v, want %v", err, want)
	}

	// Older clashing commit only (time 1): it is still found.
	m, victim = history()
	_, err = m.Commit(victim, set(5), nil, nil)
	want = fmt.Errorf("%w: %v written at %v after snapshot %v",
		ErrConflict, oop.FromSerial(5), oop.Time(1), oop.Time(0))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("err = %v, want %v", err, want)
	}
}

func TestDisjointTransactionsBothCommit(t *testing.T) {
	m := NewManager(0, nil)
	t1 := m.Begin()
	t2 := m.Begin()
	if _, err := m.Commit(t1, set(1), set(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(t2, set(2), set(2), nil); err != nil {
		t.Errorf("disjoint commit failed: %v", err)
	}
}

func TestSerialTransactionsNeverConflict(t *testing.T) {
	m := NewManager(0, nil)
	for i := 0; i < 10; i++ {
		tx := m.Begin()
		if _, err := m.Commit(tx, set(1, 2, 3), set(1, 2, 3), nil); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestReadOnlyCommitNoTime(t *testing.T) {
	m := NewManager(3, nil)
	tx := m.Begin()
	got, err := m.Commit(tx, set(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("read-only commit returned %v, want snapshot 3", got)
	}
	if m.LastCommitted() != 3 {
		t.Error("read-only commit consumed a transaction time")
	}
}

func TestReadOnlyStillValidated(t *testing.T) {
	m := NewManager(0, nil)
	reader := m.Begin()
	writer := m.Begin()
	if _, err := m.Commit(writer, nil, set(1), nil); err != nil {
		t.Fatal(err)
	}
	// The reader saw object 1 before writer's commit; its reads are stale.
	if _, err := m.Commit(reader, set(1), nil, nil); !errors.Is(err, ErrConflict) {
		t.Errorf("stale read-only commit should conflict, got %v", err)
	}
}

func TestApplyFailureDoesNotConsumeTime(t *testing.T) {
	boom := errors.New("disk full")
	fail := true
	m := NewManager(0, func(group []*Pending) error {
		if fail {
			return boom
		}
		return nil
	})
	tx := m.Begin()
	if _, err := m.Commit(tx, nil, set(1), nil); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if m.LastCommitted() != 0 {
		t.Error("failed apply consumed a transaction time")
	}
	// The failed write set must not poison later validation, and the
	// rolled-back time is reused.
	fail = false
	t2 := m.Begin()
	got, err := m.Commit(t2, set(1), set(1), nil)
	if err != nil {
		t.Errorf("commit after failed apply: %v", err)
	}
	if got != 1 {
		t.Errorf("commit time after rollback = %v, want 1", got)
	}
}

// TestGroupCommitBatches forces commits to queue behind a slow applier and
// checks they are flushed as one group by a single applier call.
func TestGroupCommitBatches(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var groupsMu sync.Mutex
	var groups [][]oop.Time
	first := true
	m := NewManager(0, nil)
	reg := counters(m)
	m.applier = func(group []*Pending) error {
		if first {
			first = false
			entered <- struct{}{}
			<-release
		}
		times := make([]oop.Time, len(group))
		for i, p := range group {
			times[i] = p.Time
		}
		groupsMu.Lock()
		groups = append(groups, times)
		groupsMu.Unlock()
		return nil
	}

	var wg sync.WaitGroup
	commit := func(serial uint64) {
		defer wg.Done()
		tx := m.Begin()
		if _, err := m.Commit(tx, nil, set(serial), nil); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go commit(1)
	<-entered // the leader is inside the applier with group {1}

	// Three more commits validate while the first group is "on disk".
	wg.Add(3)
	go commit(2)
	go commit(3)
	go commit(4)
	for m.PendingCount() != 3 {
	}
	close(release)
	wg.Wait()

	groupsMu.Lock()
	defer groupsMu.Unlock()
	if len(groups) != 2 {
		t.Fatalf("applier ran %d times, want 2 (groups %v)", len(groups), groups)
	}
	if len(groups[0]) != 1 || groups[0][0] != 1 {
		t.Errorf("first group = %v, want [1]", groups[0])
	}
	if len(groups[1]) != 3 {
		t.Fatalf("second group = %v, want 3 members", groups[1])
	}
	for i, at := range groups[1] {
		if at != oop.Time(i+2) {
			t.Errorf("second group times = %v, want [2 3 4]", groups[1])
			break
		}
	}
	if st := reg.Snapshot(); st.Counter("txn.groups") != 2 || st.Counter("txn.commits") != 4 {
		t.Errorf("counters:\n%s", st)
	}
	if m.LastCommitted() != 4 {
		t.Errorf("LastCommitted = %v", m.LastCommitted())
	}
}

// TestGroupFailureRollsBackGroup fails the applier on a multi-member group
// and checks every member errors, no time is consumed, and the times are
// reused by the next successful commits.
func TestGroupFailureRollsBackGroup(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("replica gone")
	calls := 0
	m := NewManager(0, nil)
	m.applier = func(group []*Pending) error {
		calls++
		switch calls {
		case 1:
			entered <- struct{}{}
			<-release
			return nil
		case 2:
			return boom
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	commit := func(i int, serial uint64) {
		defer wg.Done()
		tx := m.Begin()
		_, errs[i] = m.Commit(tx, nil, set(serial), nil)
	}
	wg.Add(1)
	go commit(0, 1)
	<-entered
	wg.Add(3)
	go commit(1, 2)
	go commit(2, 3)
	go commit(3, 4)
	for m.PendingCount() != 3 {
	}
	close(release)
	wg.Wait()

	if errs[0] != nil {
		t.Errorf("first commit: %v", errs[0])
	}
	for i := 1; i < 4; i++ {
		if !errors.Is(errs[i], boom) {
			t.Errorf("member %d: %v, want %v", i, errs[i], boom)
		}
	}
	if m.LastCommitted() != 1 {
		t.Errorf("LastCommitted = %v, want 1 (failed group rolled back)", m.LastCommitted())
	}
	// The rolled-back times 2..4 are reused and the write sets no longer
	// poison validation.
	for want := oop.Time(2); want <= 4; want++ {
		tx := m.Begin()
		got, err := m.Commit(tx, nil, set(uint64(want)), nil)
		if err != nil || got != want {
			t.Fatalf("reuse commit = %v, %v (want time %v)", got, err, want)
		}
	}
}

func TestAbort(t *testing.T) {
	m := NewManager(0, nil)
	tx := m.Begin()
	m.Abort(tx)
	if m.ActiveCount() != 0 {
		t.Error("abort left transaction active")
	}
	if _, err := m.Commit(tx, nil, set(1), nil); err == nil {
		t.Error("commit after abort should fail")
	}
}

func TestLogTrimming(t *testing.T) {
	m := NewManager(0, nil)
	for i := 0; i < 100; i++ {
		tx := m.Begin()
		if _, err := m.Commit(tx, nil, set(uint64(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// With no active transactions the validation log should be empty, and
	// the recent-writer index with it.
	m.mu.Lock()
	n, idx := len(m.log), len(m.recent)
	m.mu.Unlock()
	if n != 0 || idx != 0 {
		t.Errorf("log holds %d records, index %d entries, with no active transactions", n, idx)
	}
	// An old active snapshot pins the log.
	old := m.Begin()
	for i := 0; i < 5; i++ {
		tx := m.Begin()
		if _, err := m.Commit(tx, nil, set(uint64(200+i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	n, idx = len(m.log), len(m.recent)
	m.mu.Unlock()
	if n != 5 || idx != 5 {
		t.Errorf("log holds %d records, index %d entries, want 5 pinned by old snapshot", n, idx)
	}
	m.Abort(old)
}

func TestSafeTime(t *testing.T) {
	m := NewManager(7, nil)
	if m.SafeTime() != 7 {
		t.Errorf("SafeTime = %v", m.SafeTime())
	}
	tx := m.Begin()
	if _, err := m.Commit(tx, nil, set(1), nil); err != nil {
		t.Fatal(err)
	}
	if m.SafeTime() != 8 {
		t.Errorf("SafeTime after commit = %v", m.SafeTime())
	}
}

// TestConcurrentCommitsSerializable hammers the manager from many
// goroutines incrementing a logical counter through the group committer;
// the number of successful commits must equal the final counter value
// (lost updates impossible).
func TestConcurrentCommitsSerializable(t *testing.T) {
	var mu sync.Mutex
	counter := 0 // the "database"
	m := NewManager(0, func(group []*Pending) error {
		for _, p := range group {
			mu.Lock()
			counter = p.Payload.(int)
			mu.Unlock()
		}
		return nil
	})
	reg := counters(m)
	const workers, attempts = 8, 50
	var wg sync.WaitGroup
	var committed int64
	var commitMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < attempts; a++ {
				tx := m.Begin()
				mu.Lock()
				val := counter
				mu.Unlock()
				_, err := m.Commit(tx, set(1), set(1), val+1)
				if err == nil {
					commitMu.Lock()
					committed++
					commitMu.Unlock()
				} else if !errors.Is(err, ErrConflict) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	final := counter
	mu.Unlock()
	if int64(final) != committed {
		t.Errorf("lost updates: counter=%d committed=%d", final, committed)
	}
	st := reg.Snapshot()
	if st.Counter("txn.commits")+st.Counter("txn.conflicts.read")+st.Counter("txn.conflicts.write") != workers*attempts {
		t.Errorf("outcomes don't sum:\n%s", st)
	}
}

func BenchmarkCommitDisjoint(b *testing.B) {
	m := NewManager(0, nil)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			tx := m.Begin()
			if _, err := m.Commit(tx, nil, set(i), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValidationLongLog measures validation cost with many recent
// writers: the recent-writer index keeps it O(|reads|+|writes|) regardless
// of how many commits sit after the snapshot.
func BenchmarkValidationLongLog(b *testing.B) {
	m := NewManager(0, nil)
	pin := m.Begin() // pins the log so it cannot be trimmed
	for i := 0; i < 4096; i++ {
		tx := m.Begin()
		if _, err := m.Commit(tx, nil, set(uint64(i+10)), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin()
		if _, err := m.Commit(tx, set(1, 2, 3), set(4, 5), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m.Abort(pin)
}
