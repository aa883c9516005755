package wire

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Client is a host-side connection to a GemStone server. Calls may be
// issued from many goroutines at once: requests are written with
// client-chosen frame IDs, a reader goroutine demultiplexes responses by
// ID, and each call waits only for its own response — so calls pipeline
// over one connection instead of taking turns.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex // serializes request writes: one frame on the wire at a time

	pmu     sync.Mutex // guards pending, dead
	pending map[uint64]chan Response
	dead    error // reader exited; fails all pending and future calls

	nextID      atomic.Uint64
	callTimeout atomic.Int64 // ns a call waits for its response; 0 = forever
	reqDeadline atomic.Int64 // ns execution budget stamped on requests; 0 = server default

	readerDone chan struct{} // closed when the reader goroutine exits
}

func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		pending:    make(map[uint64]chan Response),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// DialTimeout connects to a server, giving up after d.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// DialRetry connects with bounded retry and jittered exponential backoff.
// See DialRetryCtx.
func DialRetry(addr string, timeout time.Duration, attempts int) (*Client, error) {
	return DialRetryCtx(context.Background(), addr, timeout, attempts)
}

// DialRetryCtx connects with bounded retry: attempts tries, each bounded
// by timeout, sleeping a jittered exponential backoff (uniform in
// [b/2, b] for b = 50ms, 100ms, 200ms, ... capped at 2s) between them.
// A slow-starting server — common right after its host boots — then
// delays clients instead of hard-failing them, and the jitter spreads a
// thundering herd of reconnecting clients instead of synchronizing it.
// Cancelling ctx abandons both the sleeps and the dials.
func DialRetryCtx(ctx context.Context, addr string, timeout time.Duration, attempts int) (*Client, error) {
	if attempts < 1 {
		attempts = 1
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if err := sleepCtx(ctx, jitter(backoff)); err != nil {
				return nil, fmt.Errorf("wire: dial %s cancelled: %w (last error: %v)", addr, err, lastErr)
			}
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		d := net.Dialer{Timeout: timeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return newClient(conn), nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("wire: dial %s cancelled: %w (last error: %v)", addr, ctx.Err(), lastErr)
		}
	}
	return nil, fmt.Errorf("wire: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// jitter draws a uniform duration in [d/2, d] from crypto/rand (this
// package forbids math/rand, and crypto/rand needs no seed discipline).
func jitter(d time.Duration) time.Duration {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return d
	}
	r := binary.LittleEndian.Uint64(b[:])
	half := uint64(d) / 2
	return time.Duration(half + r%(half+1))
}

// sleepCtx sleeps d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SetCallTimeout bounds how long every subsequent call waits for its
// response; past it the call fails with ErrCallTimeout. The request may
// still execute on the server — only the local wait is abandoned — so
// pair it with SetRequestDeadline to bound the server side too. Zero
// (the default) waits forever.
func (c *Client) SetCallTimeout(d time.Duration) { c.callTimeout.Store(int64(d)) }

// SetRequestDeadline sets the execution budget stamped on every
// subsequent request that does not carry its own: the server aborts the
// request (rolling its transaction back) once the budget expires. Zero
// (the default) defers to the server's configured default.
func (c *Client) SetRequestDeadline(d time.Duration) { c.reqDeadline.Store(int64(d)) }

// Close disconnects (server-side sessions opened here are discarded).
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop demultiplexes responses to the calls waiting on them. A
// response whose call already gave up (call timeout) is dropped. One
// buffered reader serves the connection's life, so a frame's header and
// body, and back-to-back frames, arrive in one read.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	for {
		var resp Response
		if _, err := readFrame(br, &resp); err != nil {
			c.failPending(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.pmu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// failPending marks the client dead and wakes every waiting call with
// the connection error.
func (c *Client) failPending(err error) {
	c.pmu.Lock()
	c.dead = err
	ids := make([]uint64, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		close(c.pending[id])
	}
	c.pending = make(map[uint64]chan Response)
	c.pmu.Unlock()
}

// call sends one request and waits for its response.
func (c *Client) call(req Request) (Response, error) {
	req.ID = c.nextID.Add(1)
	if req.DeadlineNS == 0 {
		if d := c.reqDeadline.Load(); d > 0 {
			req.DeadlineNS = uint64(d)
		}
	}
	ch := make(chan Response, 1)
	c.pmu.Lock()
	if c.dead != nil {
		err := c.dead
		c.pmu.Unlock()
		return Response{}, err
	}
	c.pending[req.ID] = ch
	c.pmu.Unlock()
	c.wmu.Lock()
	_, err := writeFrame(c.conn, req)
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, req.ID)
		c.pmu.Unlock()
		return Response{}, err
	}
	var timeout <-chan time.Time
	if d := time.Duration(c.callTimeout.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.pmu.Lock()
			err := c.dead
			c.pmu.Unlock()
			return Response{}, err
		}
		return resp, nil
	case <-timeout:
		c.pmu.Lock()
		delete(c.pending, req.ID)
		c.pmu.Unlock()
		return Response{}, fmt.Errorf("%w (waited %v)", ErrCallTimeout, time.Duration(c.callTimeout.Load()))
	}
}

// RemoteSession is a session handle over the wire.
type RemoteSession struct {
	c  *Client
	id uint64
}

// Login opens a remote session.
func (c *Client) Login(user, password string) (*RemoteSession, error) {
	resp, err := c.call(Request{Op: OpLogin, User: user, Password: password})
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return &RemoteSession{c: c, id: resp.Session}, nil
}

// Execute runs a block of OPAL source remotely.
func (r *RemoteSession) Execute(source string) (result, output string, err error) {
	return r.executeReq(Request{Op: OpExecute, Session: r.id, Source: source})
}

// ExecuteDeadline is Execute with an explicit execution budget: the
// server aborts the block (rolling the transaction back) once d expires,
// overriding both the client's SetRequestDeadline and the server default.
func (r *RemoteSession) ExecuteDeadline(source string, d time.Duration) (result, output string, err error) {
	return r.executeReq(Request{Op: OpExecute, Session: r.id, Source: source, DeadlineNS: uint64(d)})
}

func (r *RemoteSession) executeReq(req Request) (result, output string, err error) {
	resp, err := r.c.call(req)
	if err != nil {
		return "", "", err
	}
	if err := respErr(resp); err != nil {
		return "", resp.Output, err
	}
	return resp.Result, resp.Output, nil
}

// Commit commits the remote transaction, returning its transaction time.
func (r *RemoteSession) Commit() (uint64, error) {
	resp, err := r.c.call(Request{Op: OpCommit, Session: r.id})
	if err != nil {
		return 0, err
	}
	if err := respErr(resp); err != nil {
		return 0, err
	}
	return resp.Time, nil
}

// Abort discards the remote transaction's pending changes.
func (r *RemoteSession) Abort() error {
	resp, err := r.c.call(Request{Op: OpAbort, Session: r.id})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Stats fetches a snapshot of the server's engine metrics. Stats is
// session-scoped like every other op: the connection must own a live
// session to introspect the server.
func (r *RemoteSession) Stats() (*obs.Snapshot, error) {
	resp, err := r.c.call(Request{Op: OpStats, Session: r.id})
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return &obs.Snapshot{}, nil
	}
	return resp.Stats, nil
}

// Health fetches the replica-arm health report. Session-scoped like
// Stats: the connection must own a live session to introspect the server.
func (r *RemoteSession) Health() ([]store.ArmHealth, error) {
	resp, err := r.c.call(Request{Op: OpHealth, Session: r.id})
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return resp.Health, nil
}

// Logout closes the remote session.
func (r *RemoteSession) Logout() error {
	resp, err := r.c.call(Request{Op: OpLogout, Session: r.id})
	if err != nil {
		return err
	}
	return respErr(resp)
}
