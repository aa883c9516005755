package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/obs"
)

// Server accepts connections and dispatches requests to an Executor.
//
// Each connection runs a small pipeline: a reader goroutine pulls frames
// (bounded by MaxInFlight), routes each to a per-session runner goroutine
// (so a slow commit on one session never head-of-line-blocks another
// session's reads on the same connection), and a writer goroutine coalesces
// back-to-back responses into one buffered write. Heavy operations pass
// through a global admitter that sheds load once its queue is full.
type Server struct {
	exec *executor.Executor
	ln   net.Listener
	cfg  Config
	met  wireMetrics
	adm  *admitter // nil = global admission control off

	maxInFlight  int
	sessionQueue int

	draining atomic.Bool
	drainCh  chan struct{} // closed when draining begins; wakes queued admits

	inflight inflightGate // accepted-but-unflushed frames; drain waits on it

	mu     sync.Mutex // guards closed, conns
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// wireMetrics instruments the network link.
type wireMetrics struct {
	framesIn         *obs.Counter
	framesOut        *obs.Counter
	bytesIn          *obs.Counter
	bytesOut         *obs.Counter
	connsOpen        *obs.Gauge
	connsTotal       *obs.Counter
	authRejections   *obs.Counter
	idleDrops        *obs.Counter
	admissionDepth   *obs.Gauge     // heavy ops waiting for an execution slot
	shedOverload     *obs.Counter   // requests shed with StatusOverloaded
	shedShutdown     *obs.Counter   // requests shed with StatusShuttingDown
	deadlineExceeded *obs.Counter   // requests failed with StatusDeadlineExceeded
	drainFlushed     *obs.Counter   // responses flushed while draining
	coalesced        *obs.Histogram // responses per coalesced write
	queueWait        *obs.Histogram // ns from frame arrival to lane dispatch
}

// Serve starts a server on the listener with default configuration. It
// returns immediately; Close stops it.
func Serve(ln net.Listener, exec *executor.Executor) *Server {
	return ServeConfig(ln, exec, Config{})
}

// ServeConfig starts a server with explicit configuration.
func ServeConfig(ln net.Listener, exec *executor.Executor, cfg Config) *Server {
	reg := exec.Obs()
	s := &Server{
		exec:    exec,
		ln:      ln,
		cfg:     cfg,
		conns:   make(map[net.Conn]struct{}),
		drainCh: make(chan struct{}),
		met: wireMetrics{
			framesIn:         reg.Counter("wire.frames.in"),
			framesOut:        reg.Counter("wire.frames.out"),
			bytesIn:          reg.Counter("wire.bytes.in"),
			bytesOut:         reg.Counter("wire.bytes.out"),
			connsOpen:        reg.Gauge("wire.conns.open"),
			connsTotal:       reg.Counter("wire.conns.total"),
			authRejections:   reg.Counter("wire.auth.rejections"),
			idleDrops:        reg.Counter("wire.conns.idle.drops"),
			admissionDepth:   reg.Gauge("wire.admission.depth"),
			shedOverload:     reg.Counter("wire.shed.overload"),
			shedShutdown:     reg.Counter("wire.shed.shutdown"),
			deadlineExceeded: reg.Counter("wire.deadline.exceeded"),
			drainFlushed:     reg.Counter("wire.drain.flushed"),
			coalesced:        reg.Histogram("wire.write.coalesced", obs.SizeBounds),
			queueWait:        reg.Histogram("wire.queue.wait", obs.LatencyBounds),
		},
	}
	s.maxInFlight = cfg.MaxInFlight
	if s.maxInFlight <= 0 {
		s.maxInFlight = defaultMaxInFlight
	}
	s.sessionQueue = cfg.SessionQueue
	if s.sessionQueue <= 0 {
		s.sessionQueue = s.maxInFlight
	}
	if cfg.admissionOn() {
		conc := cfg.MaxConcurrent
		if conc <= 0 {
			conc = 2 * runtime.GOMAXPROCS(0)
		}
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = 4 * conc
		}
		wait := cfg.QueueWait
		if wait <= 0 {
			wait = defaultQueueWait
		}
		s.adm = &admitter{
			slots: make(chan struct{}, conc),
			depth: int64(depth),
			wait:  wait,
			gauge: s.met.admissionDepth,
		}
	}
	// The gate's seed count belongs to the server itself; Shutdown drops
	// it, so the count can only reach zero once draining has begun.
	s.inflight.add(1)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and closes all connections immediately. In-flight
// requests are abandoned mid-write; use Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	err := s.ln.Close()
	//lint:ignore detmap closing live sockets; nothing here reaches a commit or stream
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if alreadyClosed {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: it stops accepting connections,
// sheds queued and newly arriving work with StatusShuttingDown, lets
// operations already dispatched (commits in particular) run to completion,
// and flushes their responses before closing connections — so every
// transaction the store made durable has its acknowledgment on the wire,
// and every request shed by the drain provably never executed. A
// non-positive timeout waits forever; on timeout the remaining
// connections are closed hard and an error is returned.
func (s *Server) Shutdown(timeout time.Duration) error {
	if !s.draining.CompareAndSwap(false, true) {
		return s.Close() // second Shutdown degenerates to Close
	}
	close(s.drainCh)
	_ = s.ln.Close() // stop accepting; acceptLoop exits
	s.inflight.add(-1)
	var err error
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-s.inflight.wait():
		case <-t.C:
			err = fmt.Errorf("wire: drain timed out after %v", timeout)
		}
	} else {
		<-s.inflight.wait()
	}
	if cerr := s.Close(); err == nil && cerr != nil && !errors.Is(cerr, net.ErrClosed) {
		err = cerr
	}
	return err
}

// inflightGate counts accepted-but-unflushed frames, plus one seed count
// held by the server until Shutdown. It replaces a sync.WaitGroup because
// frames keep arriving while the drain waits, and WaitGroup forbids Add
// from zero concurrent with Wait.
type inflightGate struct {
	mu      sync.Mutex // guards n, waiters
	n       int64
	waiters []chan struct{}
}

func (g *inflightGate) add(d int64) {
	g.mu.Lock()
	g.n += d
	if g.n == 0 {
		for _, w := range g.waiters {
			close(w)
		}
		g.waiters = nil
	}
	g.mu.Unlock()
}

// wait returns a channel closed when the count reaches zero.
func (g *inflightGate) wait() <-chan struct{} {
	ch := make(chan struct{})
	g.mu.Lock()
	if g.n == 0 {
		close(ch)
	} else {
		g.waiters = append(g.waiters, ch)
	}
	g.mu.Unlock()
	return ch
}

// admitter is the global admission queue in front of the executor: a slot
// semaphore bounds concurrent heavy operations, a depth bound caps how
// many may wait, and a wait budget caps how long. Past either bound the
// request is shed immediately — queuing forever converts overload into
// timeouts everywhere; shedding converts it into fast, explicit retries.
type admitter struct {
	slots  chan struct{} // cap MaxConcurrent: a token = leave to run
	depth  int64
	wait   time.Duration
	queued atomic.Int64
	gauge  *obs.Gauge
}

// admit blocks until an execution slot is free, the wait budget expires
// (ErrOverloaded), the queue is already at depth (ErrOverloaded, without
// waiting), the server starts draining (ErrShuttingDown), or the request
// deadline expires (the ctx error). A nil admitter admits everything.
func (a *admitter) admit(ctx context.Context, drain <-chan struct{}) error {
	if a == nil {
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.queued.Add(1) > a.depth {
		a.queued.Add(-1)
		return ErrOverloaded
	}
	a.gauge.Set(a.queued.Load())
	defer func() {
		a.queued.Add(-1)
		a.gauge.Set(a.queued.Load())
	}()
	t := time.NewTimer(a.wait)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-t.C:
		return ErrOverloaded
	case <-drain:
		return ErrShuttingDown
	case <-done:
		return ctx.Err()
	}
}

func (a *admitter) release() {
	if a == nil {
		return
	}
	<-a.slots
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// maxRunners bounds the per-session runner goroutines one connection may
// spawn; sessions beyond it share the login lane (still correct, just
// serialized), so a hostile client cannot mint goroutines via logins.
const maxRunners = 256

// serverConn is one connection's pipeline state.
type serverConn struct {
	srv *Server
	nc  net.Conn

	mu      sync.Mutex // guards owned, runners, order
	owned   map[executor.SessionID]struct{}
	runners map[uint64]chan *Request // request lane per wire session id (0 = login lane)
	order   []uint64                 // lane creation order; deterministic teardown
	runWG   sync.WaitGroup

	tokens  chan struct{} // cap maxInFlight: one token per unflushed frame
	writeCh chan Response
	writeWG sync.WaitGroup
	dead    atomic.Bool // write side failed; drain responses for accounting only
}

func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	s.met.connsTotal.Inc()
	s.met.connsOpen.Add(1)
	c := &serverConn{
		srv:     s,
		nc:      nc,
		owned:   make(map[executor.SessionID]struct{}),
		runners: make(map[uint64]chan *Request),
		tokens:  make(chan struct{}, s.maxInFlight),
		writeCh: make(chan Response, s.maxInFlight),
	}
	c.writeWG.Add(1)
	go c.writeLoop()
	c.readLoop()
	// Teardown, in pipeline order: the reader is done, so no lane gains
	// frames; close every lane, wait the runners out, then the writer.
	c.mu.Lock()
	order := append([]uint64(nil), c.order...)
	c.mu.Unlock()
	for _, key := range order {
		close(c.runners[key])
	}
	c.runWG.Wait()
	close(c.writeCh)
	c.writeWG.Wait()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
	s.met.connsOpen.Add(-1)
	// Log sessions out in a fixed order so abandoned workspaces are
	// discarded deterministically.
	ids := make([]executor.SessionID, 0, len(c.owned))
	for id := range c.owned {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		_ = s.exec.Logout(id)
	}
}

// readLoop pulls frames until the connection errors or idles out. Each
// frame takes an in-flight token (backpressure: past MaxInFlight the
// reader stops, pushing into the client's TCP window) and a gate count
// (drain accounting), both released when its response is flushed. One
// buffered reader serves the connection's life; the idle deadline still
// bounds every read it makes of the connection.
func (c *serverConn) readLoop() {
	s := c.srv
	br := bufio.NewReader(c.nc)
	for {
		if d := s.cfg.IdleTimeout; d > 0 {
			//lint:ignore wallclock connection deadline only; never reaches committed state
			_ = c.nc.SetReadDeadline(time.Now().Add(d))
		}
		req := new(Request)
		n, err := readFrame(br, req)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.met.idleDrops.Inc()
			}
			return
		}
		s.met.framesIn.Inc()
		s.met.bytesIn.Add(uint64(n))
		//lint:ignore wallclock deadline anchor and queue-wait accounting only; never reaches committed state
		req.arrival = time.Now()
		c.tokens <- struct{}{}
		s.inflight.add(1)
		c.route(req)
	}
}

// route hands a frame to its session's lane, creating the lane (and its
// runner goroutine) on first use. A full lane sheds the request at once.
func (c *serverConn) route(req *Request) {
	key := req.Session // OpLogin carries session 0: the login lane
	c.mu.Lock()
	ch, ok := c.runners[key]
	if !ok && len(c.runners) >= maxRunners {
		key = 0
		ch, ok = c.runners[key]
	}
	spawn := !ok
	if spawn {
		ch = make(chan *Request, c.srv.sessionQueue)
		c.runners[key] = ch
		c.order = append(c.order, key)
		c.runWG.Add(1)
	}
	c.mu.Unlock()
	if spawn {
		go c.runLoop(ch)
	}
	select {
	case ch <- req:
	default:
		c.srv.met.shedOverload.Inc()
		c.finish(Response{ID: req.ID, Status: StatusOverloaded, Error: ErrOverloaded.Error()})
	}
}

// runLoop serves one session's lane, strictly in order.
func (c *serverConn) runLoop(ch <-chan *Request) {
	defer c.runWG.Done()
	for req := range ch {
		c.finish(c.run(req))
	}
}

// finish queues a response for the writer. The send cannot block
// indefinitely: writeCh holds MaxInFlight responses and the token bound
// means no more than MaxInFlight are ever outstanding.
func (c *serverConn) finish(resp Response) {
	c.writeCh <- resp
}

// run executes one request: drain check, deadline setup, dispatch. The
// deadline budget is anchored at frame arrival (stamped by the read loop),
// so time spent queued in the session lane counts against it; a request
// whose budget expired while it waited is shed here without touching the
// session.
func (c *serverConn) run(req *Request) Response {
	s := c.srv
	if s.draining.Load() {
		s.met.shedShutdown.Inc()
		return Response{ID: req.ID, Status: StatusShuttingDown, Error: ErrShuttingDown.Error()}
	}
	var wait time.Duration
	if !req.arrival.IsZero() {
		//lint:ignore wallclock queue-wait accounting and deadline anchoring only; never reaches committed state
		wait = time.Since(req.arrival)
		s.met.queueWait.Observe(uint64(wait))
	}
	var ctx context.Context
	budget := s.cfg.DefaultDeadline
	if req.DeadlineNS > 0 {
		budget = time.Duration(req.DeadlineNS)
	}
	if budget > 0 {
		if !req.arrival.IsZero() {
			if wait >= budget {
				s.met.deadlineExceeded.Inc()
				return Response{ID: req.ID, Status: StatusDeadlineExceeded, Error: ErrDeadlineExceeded.Error()}
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(context.Background(), req.arrival.Add(budget))
			defer cancel()
		} else {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(context.Background(), budget)
			defer cancel()
		}
	}
	resp := c.dispatch(ctx, req)
	resp.ID = req.ID
	return resp
}

// fail classifies an error into a response, counting sheds and expiries.
func (s *Server) fail(err error) Response {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.met.shedOverload.Inc()
		return Response{Status: StatusOverloaded, Error: err.Error()}
	case errors.Is(err, ErrShuttingDown):
		s.met.shedShutdown.Inc()
		return Response{Status: StatusShuttingDown, Error: err.Error()}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.met.deadlineExceeded.Inc()
		return Response{Status: StatusDeadlineExceeded, Error: err.Error()}
	}
	return Response{Error: err.Error()}
}

// dispatch runs one request against the executor. Heavy operations
// (login, execute, commit) pass the global admitter first; bookkeeping
// operations (abort, logout, stats, health) always run — shedding an
// abort or logout would only keep dying clients' state alive longer.
// ctx, possibly nil, carries the request deadline.
func (c *serverConn) dispatch(ctx context.Context, req *Request) Response {
	s := c.srv
	switch req.Op {
	case OpLogin:
		if err := s.adm.admit(ctx, s.drainCh); err != nil {
			return s.fail(err)
		}
		id, err := s.exec.Login(req.User, req.Password)
		s.adm.release()
		if err != nil {
			return s.fail(err)
		}
		c.mu.Lock()
		c.owned[id] = struct{}{}
		c.mu.Unlock()
		return Response{OK: true, Session: uint64(id)}
	}
	// Every other op names a session: it must be one this connection logged
	// in. Without this check any client holding a session ID — or guessing
	// one — could execute, commit or log out another user's session.
	sid := executor.SessionID(req.Session)
	c.mu.Lock()
	_, ok := c.owned[sid]
	c.mu.Unlock()
	if !ok {
		s.met.authRejections.Inc()
		return s.fail(fmt.Errorf("%w: %d", ErrNotAuthorized, req.Session))
	}
	switch req.Op {
	case OpExecute:
		if err := s.adm.admit(ctx, s.drainCh); err != nil {
			return s.fail(err)
		}
		result, output, err := s.exec.ExecuteCtx(ctx, sid, req.Source)
		s.adm.release()
		if err != nil {
			resp := s.fail(err)
			resp.Output = output
			return resp
		}
		return Response{OK: true, Result: result, Output: output}
	case OpCommit:
		if err := s.adm.admit(ctx, s.drainCh); err != nil {
			return s.fail(err)
		}
		t, err := s.exec.CommitCtx(ctx, sid)
		s.adm.release()
		if err != nil {
			return s.fail(err)
		}
		return Response{OK: true, Time: uint64(t)}
	case OpAbort:
		if err := s.exec.Abort(sid); err != nil {
			return s.fail(err)
		}
		return Response{OK: true}
	case OpLogout:
		if err := s.exec.Logout(sid); err != nil {
			return s.fail(err)
		}
		c.mu.Lock()
		delete(c.owned, sid)
		c.mu.Unlock()
		return Response{OK: true}
	case OpStats:
		return Response{OK: true, Stats: s.exec.Obs().Snapshot()}
	case OpHealth:
		return Response{OK: true, Health: s.exec.Health()}
	}
	return s.fail(fmt.Errorf("wire: unknown op %d", req.Op))
}

// writeLoop coalesces responses: it writes every response already queued
// into one buffered batch and flushes once, so a burst of pipelined
// results costs one syscall, not MaxInFlight.
func (c *serverConn) writeLoop() {
	defer c.writeWG.Done()
	bw := bufio.NewWriter(c.nc)
	for {
		resp, open := <-c.writeCh
		if !open {
			return
		}
		batch := 0
		for {
			c.writeOne(bw, resp)
			batch++
			more := false
			select {
			case resp, open = <-c.writeCh:
				more = open
			default:
			}
			if !more {
				break
			}
		}
		c.flushBatch(bw, batch)
		if !open {
			return
		}
	}
}

// writeOne encodes a response into the batch buffer. An answer too large
// for one frame fails its own request, not the connection. On a dead
// connection it does nothing: responses still pass through for
// accounting, so drain and backpressure bookkeeping stay exact.
func (c *serverConn) writeOne(bw *bufio.Writer, resp Response) {
	if c.dead.Load() {
		return
	}
	n, err := writeFrame(bw, resp)
	if errors.Is(err, errFrameTooLarge) {
		n, err = writeFrame(bw, Response{ID: resp.ID, Status: StatusError, Error: err.Error()})
	}
	if err != nil {
		c.dead.Store(true)
		c.nc.Close()
		return
	}
	c.srv.met.framesOut.Inc()
	c.srv.met.bytesOut.Add(uint64(n))
}

// flushBatch puts the coalesced batch on the wire, then releases the
// batch's in-flight tokens and gate counts — a frame counts as in flight
// until its response bytes have left the server.
func (c *serverConn) flushBatch(bw *bufio.Writer, batch int) {
	s := c.srv
	if !c.dead.Load() {
		if d := s.cfg.IdleTimeout; d > 0 {
			//lint:ignore wallclock connection write deadline only; a client that stops reading must not pin the writer
			_ = c.nc.SetWriteDeadline(time.Now().Add(d))
		}
		if err := bw.Flush(); err != nil {
			c.dead.Store(true)
			c.nc.Close()
		}
	}
	s.met.coalesced.Observe(uint64(batch))
	if s.draining.Load() {
		s.met.drainFlushed.Add(uint64(batch))
	}
	for i := 0; i < batch; i++ {
		<-c.tokens
	}
	s.inflight.add(int64(-batch))
}
