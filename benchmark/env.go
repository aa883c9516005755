package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/gemstone"
	"repro/internal/executor"
	"repro/internal/wire"
)

// The database and server posture every run uses. One replica and the
// store's own per-group sync are the flush policy; the front end is the
// C12 posture (EXPERIMENTS.md).
const (
	trackSize   = 8192
	cacheTracks = 256
	password    = "swordfish"
	callTimeout = 30 * time.Second // a stalled host makes an op slow, not failed
	nClients    = 2                // = nproc of the sandbox; one session per connection
)

func dbOptions() gemstone.Options {
	return gemstone.Options{TrackSize: trackSize, Replicas: 1, CacheTracks: cacheTracks}
}

func serverConfig() wire.Config {
	return wire.Config{MaxInFlight: 8, MaxConcurrent: 4, QueueDepth: 64, QueueWait: 50 * time.Millisecond}
}

// env is one loaded database and whatever is serving it: the wire server
// and its connections for a wire run, nothing more for the lower rungs.
type env struct {
	dir     string
	db      *gemstone.DB
	exec    *executor.Executor
	srv     *wire.Server
	clients []*wire.Client
	logouts []func() // sessions opened below the wire, closed at shutdown
	w       workload
}

// janitor owns every env of the process, so that a normal return, the
// watchdog and a signal all tear down the same way: server drained,
// connections closed, database closed, directory removed.
type janitor struct {
	mu   sync.Mutex // guards envs
	envs []*env
}

func (j *janitor) track(e *env) {
	j.mu.Lock()
	j.envs = append(j.envs, e)
	j.mu.Unlock()
}

// release closes e and forgets it.
func (j *janitor) release(e *env) error {
	j.mu.Lock()
	for i, x := range j.envs {
		if x == e {
			j.envs = append(j.envs[:i], j.envs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
	return e.close()
}

// closeAll tears down whatever is still open; used on the abnormal exits.
func (j *janitor) closeAll() {
	j.mu.Lock()
	envs := j.envs
	j.envs = nil
	j.mu.Unlock()
	for _, e := range envs {
		_ = e.close() // already leaving on an error path; the directory is removed regardless
	}
}

// openDB loads a fresh database with the workload's data and reopens it,
// so the run starts like a restarted server: everything comes from disk and
// neither the object cache nor the track cache holds the loaded data.
func openDB(j *janitor, base string, w workload) (*env, error) {
	dir, err := os.MkdirTemp(base, "db-*")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, w: w}
	j.track(e)
	if err := e.load(); err != nil {
		_ = j.release(e)
		return nil, err
	}
	if e.db, err = gemstone.Open(dir, dbOptions()); err != nil {
		_ = j.release(e)
		return nil, fmt.Errorf("reopen after load: %w", err)
	}
	return e, nil
}

func (e *env) load() error {
	db, err := gemstone.Open(e.dir, dbOptions())
	if err != nil {
		return err
	}
	s, err := db.Login(gemstone.SystemUser, password)
	if err != nil {
		db.Close()
		return err
	}
	err = e.w.load(s)
	s.Close()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	return nil
}

// serve puts the database behind a wire server on a loopback port and
// dials one connection per client, returning the session logged in on each.
func (e *env) serve(clients int) ([]*wire.RemoteSession, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var sessions []*wire.RemoteSession
	e.exec = executor.New(e.db)
	e.srv = wire.ServeConfig(ln, e.exec, serverConfig())
	for i := 0; i < clients; i++ {
		c, err := wire.DialTimeout(ln.Addr().String(), 2*time.Second)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
		c.SetCallTimeout(callTimeout)
		rs, err := c.Login(gemstone.SystemUser, password)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, rs)
	}
	return sessions, nil
}

// shutdown is the one teardown path short of removing the files: server
// drained, connections closed, database closed. It is safe on a half-built
// env and safe to repeat.
func (e *env) shutdown() error {
	var errs []error
	if e.srv != nil { // closing a connection logs its sessions out
		if err := e.srv.Shutdown(5 * time.Second); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		e.srv = nil
	}
	for _, c := range e.clients {
		c.Close() // the server side is already gone; the error says only that
	}
	e.clients = nil
	for _, logout := range e.logouts {
		logout()
	}
	e.logouts = nil
	if e.db != nil {
		if n := e.db.Core().TxnManager().ActiveCount(); n != 0 {
			errs = append(errs, fmt.Errorf("teardown left %d transactions active", n))
		}
		if err := e.db.Close(); err != nil {
			errs = append(errs, err)
		}
		e.db = nil
	}
	return errors.Join(errs...)
}

func (e *env) close() error {
	return errors.Join(e.shutdown(), os.RemoveAll(e.dir))
}

// diskBytes is the size of the database directory.
func (e *env) diskBytes() int64 {
	var n int64
	_ = filepath.Walk(e.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
