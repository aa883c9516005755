package wire

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gemstone"
	"repro/internal/executor"
)

// TestShutdownLeavesNoGoroutines is the lifecycle check for the whole
// served stack: after a database has been opened, served, driven by
// several clients with pipelined requests, and then torn down (clients
// closed, server drained, database closed), every goroutine any layer
// started — accept loop, connection reader/writer, session lanes, client
// demultiplexers, the commit pipeline — must have exited. A goroutine
// that nothing can stop would outlive Close and pile up across reopens.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	db, err := gemstone.Open(t.TempDir(), gemstone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfig(ln, executor.New(db), Config{})
	addr := ln.Addr().String()

	const clients, sessions, rounds = 4, 2, 8
	var cs []*Client
	for i := 0; i < clients; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	// Each client runs two sessions concurrently, so their frames are in
	// flight on one connection at once and both lanes are live.
	errs := make(chan error, clients*sessions)
	var wg sync.WaitGroup
	for i, c := range cs {
		for j := 0; j < sessions; j++ {
			wg.Add(1)
			go func(c *Client, key string) {
				defer wg.Done()
				rs, err := c.Login(gemstone.SystemUser, "swordfish")
				if err != nil {
					errs <- err
					return
				}
				for r := 0; r < rounds; r++ {
					if _, _, err := rs.Execute(fmt.Sprintf("World at: #%s put: %d", key, r)); err != nil {
						errs <- err
						return
					}
					// Every session writes the World root, so commits may
					// conflict; a conflict is a normal outcome here.
					if _, err := rs.Commit(); err != nil && !strings.Contains(err.Error(), "conflict") {
						errs <- err
						return
					}
				}
				errs <- rs.Logout()
			}(c, fmt.Sprintf("life%d_%d", i, j))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range cs {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines after teardown, %d before Open:\n%s", n, base, buf)
	}
}
