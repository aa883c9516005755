package wire

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/gemstone"
	"repro/internal/executor"
)

func startServerConfig(t *testing.T, cfg Config) (*Server, *executor.Executor, string) {
	t.Helper()
	db, err := gemstone.Open(t.TempDir(), gemstone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exec := executor.New(db)
	srv := ServeConfig(ln, exec, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, exec, ln.Addr().String()
}

// TestSessionHijackRejected is the regression test for the wire
// authorization hole: connection B presenting connection A's session ID
// must get an authorization error for every session-scoped op, not access
// to A's workspace.
func TestSessionHijackRejected(t *testing.T) {
	_, _, addr := startServerConfig(t, Config{})
	ca, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	victim, err := ca.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}

	cb, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	// B even logs in legitimately — owning *a* session must not grant
	// access to *other* sessions.
	if _, err := cb.Login(gemstone.SystemUser, "swordfish"); err != nil {
		t.Fatal(err)
	}
	forged := &RemoteSession{c: cb, id: victim.id}

	if _, _, err := forged.Execute("World at: #stolen put: 1"); err == nil {
		t.Fatal("hijacked Execute succeeded")
	} else if !strings.Contains(err.Error(), "not owned") {
		t.Errorf("hijacked Execute error = %v, want authorization error", err)
	}
	if _, err := forged.Commit(); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("hijacked Commit error = %v, want authorization error", err)
	}
	if err := forged.Abort(); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("hijacked Abort error = %v, want authorization error", err)
	}
	if err := forged.Logout(); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("hijacked Logout error = %v, want authorization error", err)
	}

	// The victim's session is intact and still owned by connection A.
	if result, _, err := victim.Execute("40 + 2"); err != nil || result != "42" {
		t.Errorf("victim session broken after hijack attempts: %q (%v)", result, err)
	}
	snap, err := victim.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Counter("wire.auth.rejections"); n != 4 {
		t.Errorf("wire.auth.rejections = %d, want 4", n)
	}
}

// TestStatsRoundTrip drives a scripted login/execute/commit sequence over
// TCP and checks OpStats returns nonzero engine counters.
func TestStatsRoundTrip(t *testing.T) {
	_, exec, addr := startServerConfig(t, Config{})
	exec.SetSlowQueryThreshold(0) // every execute enters the slow log
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.Execute("World at: #observed put: 7"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, err := rs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// store.slab.grows: bootstrap alone allocates the commit scratch slabs.
	// store.slab.reuses: any commit after bootstrap reuses them.
	for _, name := range []string{"txn.commits", "txn.begun", "wire.frames.in", "wire.bytes.in", "store.applies", "executor.logins",
		"store.slab.reuses", "store.slab.grows"} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s = 0 after login/execute/commit", name)
		}
	}
	if snap.Gauge("wire.conns.open") < 1 {
		t.Errorf("wire.conns.open = %d, want >= 1", snap.Gauge("wire.conns.open"))
	}
	if snap.Gauge("executor.sessions") != 1 {
		t.Errorf("executor.sessions = %d, want 1", snap.Gauge("executor.sessions"))
	}
	if _, ok := snap.Histogram("executor.execute.ns"); !ok {
		t.Error("executor.execute.ns histogram missing")
	}
	// The overload instruments are registered up front, so they appear in
	// every snapshot even while zero: an operator watching the admission
	// queue must see "0", not "absent".
	for _, name := range []string{"wire.shed.overload", "wire.shed.shutdown", "wire.deadline.exceeded", "wire.drain.flushed"} {
		found := false
		for _, cv := range snap.Counters {
			if cv.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("overload counter %s not registered", name)
		}
	}
	found := false
	for _, gv := range snap.Gauges {
		if gv.Name == "wire.admission.depth" {
			found = true
			break
		}
	}
	if !found {
		t.Error("wire.admission.depth gauge not registered")
	}
	if hv, ok := snap.Histogram("wire.write.coalesced"); !ok || hv.Count == 0 {
		t.Errorf("wire.write.coalesced histogram missing or empty (ok=%v)", ok)
	}
	// Every dispatched request records its queue wait, so the histogram is
	// both registered and populated after the sequence above.
	if hv, ok := snap.Histogram("wire.queue.wait"); !ok || hv.Count == 0 {
		t.Errorf("wire.queue.wait histogram missing or empty (ok=%v)", ok)
	}
	// Histograms keep their buckets and the slow log its entries.
	if hv, _ := snap.Histogram("executor.execute.ns"); len(hv.Bounds) == 0 || len(hv.Buckets) != len(hv.Bounds)+1 || hv.Count == 0 {
		t.Errorf("executor.execute.ns = %+v, want bounds and len(bounds)+1 populated buckets", hv)
	}
	if len(snap.Slow) == 0 || snap.Slow[len(snap.Slow)-1].Source != "World at: #observed put: 7" || snap.Slow[0].DurNS == 0 {
		t.Errorf("slow log = %+v, want the executed source last", snap.Slow)
	}
	// Slow sources that are not valid UTF-8 as kept: a two-byte character
	// across the slow log's 512-byte cut, and a raw 0xff byte. Stats still
	// decodes, and the connection goes on.
	straddle := "'" + strings.Repeat("x", 510) + "é'"
	for _, src := range []string{straddle, "'\xff'"} {
		rs.Execute(src) // the slow log records it whatever the answer
	}
	if snap, err = rs.Stats(); err != nil {
		t.Fatalf("stats after non-UTF-8 slow sources: %v", err)
	}
	if n := len(snap.Slow); n < 2 || snap.Slow[n-2].Source != straddle[:511]+"…" || snap.Slow[n-1].Source != "'\uFFFD'" {
		t.Errorf("slow log = %+v, want the straddling source cut before its last character, then '\uFFFD'", snap.Slow)
	}
	if res, _, err := rs.Execute("3 + 4"); err != nil || res != "7" {
		t.Fatalf("execute after stats: %q, %v", res, err)
	}
	// Stats is session-scoped: a connection without a live session is
	// refused.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	forged := &RemoteSession{c: c2, id: rs.id}
	if _, err := forged.Stats(); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Errorf("unauthenticated Stats error = %v, want authorization error", err)
	}
}

// TestIdleTimeoutDropsConnection proves a silent client is disconnected
// and its sessions are logged out, instead of pinning a goroutine forever.
func TestIdleTimeoutDropsConnection(t *testing.T) {
	_, exec, addr := startServerConfig(t, Config{IdleTimeout: 100 * time.Millisecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	if exec.ActiveSessions() != 1 {
		t.Fatalf("sessions = %d, want 1", exec.ActiveSessions())
	}
	// Go quiet. The server must log the session out on its own.
	deadline := time.Now().Add(5 * time.Second)
	for exec.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection still holds its session after 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := rs.Execute("1"); err == nil {
		t.Error("execute on idle-dropped connection should fail")
	}
	if n := exec.Obs().Snapshot().Counter("wire.conns.idle.drops"); n == 0 {
		t.Error("wire.conns.idle.drops not counted")
	}
}

// TestActiveClientSurvivesIdleTimeout checks the deadline is per-frame: a
// client chatting slower than the timeout but steadily is never dropped.
func TestActiveClientSurvivesIdleTimeout(t *testing.T) {
	_, _, addr := startServerConfig(t, Config{IdleTimeout: 300 * time.Millisecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(100 * time.Millisecond)
		if _, _, err := rs.Execute("1 + 1"); err != nil {
			t.Fatalf("round %d: active client dropped: %v", i, err)
		}
	}
}
