// Package seeded holds deliberately buggy code — one specimen per gated
// analyzer — for the linter's linter: TestSeededFixturesFire loads this
// package explicitly and asserts that unlockpath, errflow, bufown and
// sessionlife all fire, and the CI canary step requires the built gslint
// binary to exit non-zero on it. `./...` never matches a testdata
// directory, so these bugs are invisible to normal lint runs and builds.
package seeded

import (
	"sync"
)

type cache struct {
	mu sync.Mutex
	m  map[string]int
}

// unlockpath specimen: the miss path returns before the deferred unlock
// is registered, leaving c.mu held forever.
func (c *cache) Get(k string) (int, bool) {
	c.mu.Lock()
	v, ok := c.m[k]
	if !ok {
		return 0, false
	}
	defer c.mu.Unlock()
	return v, true
}

type dev struct{}

func (dev) Sync() error { return nil }

// errflow specimen: the durability error from Sync is discarded — the
// write is acknowledged but may never reach the platter.
func flush(d dev) {
	d.Sync()
}

// slab mimics the commit path's reusable scratch buffers.
var slab = sync.Pool{New: func() any { return new([]byte) }}

// bufown specimen: the early return skips the Put, so the scratch buffer
// leaks out of the pool on every failure.
func render(fail bool) int {
	buf := slab.Get().(*[]byte)
	if fail {
		return 0
	}
	slab.Put(buf)
	return len(*buf)
}

// Session mimics internal/core's session shape for the sessionlife
// specimen.
type Session struct{ open bool }

func (s *Session) Close()                   { s.open = false }
func (s *Session) Execute(src string) error { return nil }

type registry struct{}

func (registry) NewSession(user, password string) (*Session, error) {
	return &Session{open: true}, nil
}

// sessionlife specimen: the Execute error path returns without closing the
// session it just created — the bootstrap-session-leak class.
func audit(r registry) error {
	s, err := r.NewSession("audit", "x")
	if err != nil {
		return err
	}
	if err := s.Execute("scan"); err != nil {
		return err
	}
	s.Close()
	return nil
}
