package analysis

import "testing"

// sessionFixture is a miniature of internal/core's session shape: a DB
// handing out owned *Sessions.
const sessionFixture = `package fx

type Session struct{ open bool }

func (s *Session) Close()              { s.open = false }
func (s *Session) Execute(src string) error { return nil }

type DB struct{}

func (db *DB) NewSession(user, password string) (*Session, error) {
	return &Session{open: true}, nil
}
`

// TestSessionlifeLeak: a session that misses Close on an error path leaks
// (the gemstone.Open/CreateUser bootstrap bug class).
func TestSessionlifeLeak(t *testing.T) {
	got := checkFixture(t, "fixt/sess", sessionFixture+`

func Leaky(db *DB) error {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return err
	}
	if err := s.Execute("doIt"); err != nil {
		return err // leak: s never closed
	}
	s.Close()
	return nil
}
`, Sessionlife())
	wantFindings(t, got, "not closed on every path")
}

// TestSessionlifeClean: deferred closes and ownership transfer by return
// are all clean.
func TestSessionlifeClean(t *testing.T) {
	got := checkFixture(t, "fixt/sessclean", sessionFixture+`

func Deferred(db *DB) error {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return err
	}
	defer s.Close()
	return s.Execute("doIt")
}

func Transfer(db *DB) (*Session, error) {
	return db.NewSession("u", "p") // ownership moves to the caller
}

func TransferVar(db *DB) (*Session, error) {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return nil, err
	}
	return s, nil // ownership moves to the caller
}

func VoidGuard(db *DB) {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return // the guard's bare return: s is nil here, not leaked
	}
	defer s.Close()
	s.Execute("doIt")
}

type Wrapper struct{ s *Session }

func TransferWrapped(db *DB) (*Wrapper, error) {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return nil, err
	}
	return &Wrapper{s: s}, nil // ownership moves into the returned wrapper
}
`, Sessionlife())
	wantFindings(t, got)
}

// TestSessionlifeUseAfterClose: executing on a closed session is a
// finding.
func TestSessionlifeUseAfterClose(t *testing.T) {
	got := checkFixture(t, "fixt/sessuse", sessionFixture+`

func UseAfterClose(db *DB) error {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return err
	}
	s.Close()
	return s.Execute("late") // use after close
}
`, Sessionlife())
	wantFindings(t, got, "after it was already closed")
}

// TestSessionlifeWaiver: a session deliberately left open for the process
// lifetime is waiverable at the birth site.
func TestSessionlifeWaiver(t *testing.T) {
	got := checkFixture(t, "fixt/sesswaiver", sessionFixture+`

func StartMonitor(db *DB) error {
	//lint:ignore sessionlife the monitor session lives for the process lifetime; closed on shutdown
	s, err := db.NewSession("monitor", "p")
	if err != nil {
		return err
	}
	return s.Execute("watch") // deliberately left open
}
`, Sessionlife())
	wantFindings(t, got)
}

// TestSessionlifeCloseWrapper: a helper that closes its parameter on every
// return counts as the close (the consume summary).
func TestSessionlifeCloseWrapper(t *testing.T) {
	got := checkFixture(t, "fixt/sesswrap", sessionFixture+`

func shutdown(s *Session) {
	s.Close()
}

func Clean(db *DB) error {
	s, err := db.NewSession("u", "p")
	if err != nil {
		return err
	}
	err = s.Execute("doIt")
	shutdown(s)
	return err
}
`, Sessionlife())
	wantFindings(t, got)
}
