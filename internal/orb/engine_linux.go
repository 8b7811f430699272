//go:build linux

package orb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"zcorba/internal/transport"
)

// engineConn service states (engineConn.state): the per-connection
// exclusivity protocol under edge-triggered epoll. An event handler may
// only start servicing an idle connection (CAS idle→running); an edge
// arriving mid-service is recorded as a note (CAS running→runnable)
// that the servicing dispatcher consumes before parking the connection
// back to idle. Terminal paths (close, protocol error) leave the state
// at running forever, which makes every late event a no-op.
const (
	connIdle int32 = iota
	connRunning
	connRunnable
)

// engine is the event-driven connection tier of the server side
// (docs/PERF.md "Event-driven connection engine"): instead of parking
// one reader goroutine per accepted connection, every connection whose
// transport exposes a raw socket is registered edge-triggered in a
// shared epoll set. The dispatcher pool waits on the set directly — the
// worker the kernel wakes is the worker that services the connection,
// with no intermediate poller goroutine or queue hop — so an idle
// connection costs one epoll registration plus the connection's framer,
// not an 8 KiB goroutine stack, and servant concurrency is capped by
// the pool instead of growing with the connection count.
//
// Ownership discipline: the per-connection state machine (see the
// state constants) guarantees at most one dispatcher services a
// connection at a time, so the framer needs no lock — the
// idle↔running CASes order the handoff between dispatchers. The
// connection's close hook deregisters the fd while it is still open,
// which makes a misdirected deregistration of a reused fd number
// impossible; a *delivered* event for a reused fd number is fenced by
// the registration generation carried in the event payload.
type engine struct {
	o    *ORB
	epfd int
	wg   sync.WaitGroup

	// epFile wraps the epoll fd as a pollable file: epoll sets are
	// themselves pollable (readable while their ready list is
	// non-empty), so nesting the engine's set inside the runtime
	// netpoller lets a dispatcher park for events through the
	// scheduler (gopark) instead of blocking its OS thread in
	// epoll_wait. A raw blocking wait detaches the thread from its P
	// only via the monitor thread's slow retake path, which on a
	// small-GOMAXPROCS box stalls every goroutine in the process for
	// the handoff window on each wait — measurably dominating the
	// request-rate series this engine exists to win.
	epFile *os.File
	rawEp  syscall.RawConn

	// pollMu elects the leader: exactly one dispatcher harvests the
	// epoll set at a time (leader/follower). Without it every event
	// would wake the whole pool — the kernel readies every waiter,
	// and the losers pay a wasted wakeup each.
	pollMu sync.Mutex

	mu      sync.Mutex // guards conns, nextGen, and closed
	conns   map[int32]*engineConn
	nextGen int32
	closed  bool
}

// engineWakeupBatch bounds both the epoll events harvested per wakeup
// and the messages one connection may consume per service pass before
// it is requeued behind other ready connections (per-connection
// fairness).
const engineWakeupBatch = 64

// engineConn is one registered connection. Reads are nonblocking, so a
// header or body may arrive across many service passes; the partial
// message waits between them in the connection's framer.
type engineConn struct {
	c     *conn
	raw   syscall.RawConn
	fd    int32
	state atomic.Int32
	// gen is this registration's generation tag, echoed through the
	// epoll event payload: an event whose tag does not match the
	// current occupant of its fd number belongs to an earlier, closed
	// connection and is discarded.
	gen int32

	// readFn/kickFn are the RawConn callbacks, built once at
	// registration: a fresh closure per read would put an allocation on
	// every message of the hot path (the ≤allocBudget gate). readFn
	// communicates through the read* fields, which service exclusivity
	// makes single-writer; readIov is the framer's regions as iovecs.
	readFn    func(uintptr) bool
	kickFn    func(uintptr)
	readIov   []syscall.Iovec
	readN     int
	readAgain bool
	readErr   error
}

// newEngine creates the epoll set and starts the dispatcher pool.
func newEngine(o *ORB) (*engine, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	// Nonblock before NewFile so the os layer registers the fd with
	// the runtime netpoller (see engine.epFile).
	if err := syscall.SetNonblock(epfd, true); err != nil {
		_ = syscall.Close(epfd)
		return nil, fmt.Errorf("epoll set nonblock: %w", err)
	}
	epFile := os.NewFile(uintptr(epfd), "orb-engine-epoll")
	rawEp, err := epFile.SyscallConn()
	if err != nil {
		_ = epFile.Close()
		return nil, fmt.Errorf("epoll raw conn: %w", err)
	}
	e := &engine{
		o:      o,
		epfd:   epfd,
		epFile: epFile,
		rawEp:  rawEp,
		conns:  make(map[int32]*engineConn),
	}
	// The dispatcher pool bounds inline servant concurrency.
	n := max(4, 2*runtime.GOMAXPROCS(0))
	e.wg.Add(n)
	for i := 0; i < n; i++ {
		go e.dispatcher()
	}
	return e, nil
}

// engineEvents is the registration mask: edge-triggered readiness, so
// steady-state messages cost no epoll_ctl at all (an ONESHOT design
// would pay a rearm syscall per service pass).
const engineEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLET&0xffffffff

// add registers an accepted connection with the engine. It reports
// false when this connection cannot take the event tier (transport
// without a raw socket — inproc, fault-injection wrappers — or the
// socket died before registration); the caller then falls back to the
// goroutine-per-connection loop.
func (e *engine) add(c *conn) bool {
	rc, ok := c.ctrl.(transport.RawConner)
	if !ok {
		return false
	}
	raw, err := rc.SyscallConn()
	if err != nil {
		return false
	}
	ec := &engineConn{c: c, raw: raw, fd: -1}
	ec.readFn = func(fd uintptr) bool {
		n, err := transport.Readv(fd, ec.readIov)
		if err == syscall.EAGAIN {
			ec.readN, ec.readAgain, ec.readErr = n, true, nil
		} else {
			ec.readN, ec.readAgain, ec.readErr = n, false, err
		}
		return true
	}
	ec.kickFn = func(fd uintptr) {
		ev := syscall.EpollEvent{Events: engineEvents, Fd: int32(fd), Pad: ec.gen}
		_ = syscall.EpollCtl(e.epfd, syscall.EPOLL_CTL_MOD, int(fd), &ev)
	}
	// Install the close hook before registering: whichever goroutine
	// closes the connection afterwards deregisters the fd while it is
	// still open. If close already ran, registration below fails on the
	// closed socket and the legacy fallback cleans up.
	c.setOnClose(func() { e.drop(ec) })
	var ctlErr error
	cerr := raw.Control(func(fd uintptr) {
		ec.fd = int32(fd)
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.closed {
			ctlErr = errors.New("engine stopped")
			return
		}
		ec.gen = e.nextGen
		e.nextGen++
		// Registering an already-readable fd delivers an immediate
		// edge, so bytes that raced the registration are not lost.
		ev := syscall.EpollEvent{Events: engineEvents, Fd: int32(fd), Pad: ec.gen}
		if err := syscall.EpollCtl(e.epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev); err != nil {
			ctlErr = err
			return
		}
		e.conns[int32(fd)] = ec
	})
	if cerr != nil || ctlErr != nil {
		c.setOnClose(nil)
		return false
	}
	e.o.stats.EngineConns.Add(1)
	return true
}

// drop deregisters a connection. It runs from the conn's close hook —
// inside closeOnce, so exactly once, and before the fd closes — and
// tolerates the registration-raced case where the fd never made it
// into the set.
func (e *engine) drop(ec *engineConn) {
	e.mu.Lock()
	registered := e.conns[ec.fd] == ec
	if registered {
		delete(e.conns, ec.fd)
	}
	e.mu.Unlock()
	if registered {
		_ = ec.raw.Control(func(fd uintptr) {
			_ = syscall.EpollCtl(e.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
		})
		e.o.stats.EngineConns.Add(-1)
	}
	e.o.removeServerConn(ec.c)
}

// stop drains the engine: Shutdown has already closed every connection
// (each close hook deregistered its fd). Closing the epoll file evicts
// the parked leader and fails every later harvest, so the dispatchers
// unwind immediately.
func (e *engine) stop() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	_ = e.epFile.Close()
	e.wg.Wait()
}

// dispatcher is one pool worker: it harvests the epoll set itself and
// services whatever the kernel hands it — the wakeup IS the work
// assignment, with no intermediate poller goroutine or queue hop — so
// total servant concurrency is bounded by the pool size (plus whatever
// the admission cap imposes on top). The pollMu leader election means
// a harvested batch is serviced while the next worker is already
// waiting for events.
//
// The wait itself is the nested-epoll trick (see engine.epFile): the
// leader parks in RawConn.Read until the runtime netpoller reports the
// engine's set readable, then harvests with a zero-timeout epoll_wait.
// No dispatcher ever blocks an OS thread in a raw syscall; idle or
// busy, they wait as ordinary parked goroutines.
func (e *engine) dispatcher() {
	defer e.wg.Done()
	events := make([]syscall.EpollEvent, engineWakeupBatch)
	for {
		e.pollMu.Lock()
		var n int
		var err error
		rerr := e.rawEp.Read(func(fd uintptr) bool {
			n, err = syscall.EpollWait(int(fd), events, 0)
			if err == syscall.EINTR {
				n, err = 0, nil
			}
			// false with nothing harvested parks this goroutine in
			// the netpoller until the set becomes readable again.
			return n > 0 || err != nil
		})
		e.pollMu.Unlock()
		if rerr != nil {
			// The epoll file was closed: engine shutdown.
			return
		}
		if err != nil {
			e.o.logf("orb: engine epoll_wait: %v", err)
			return
		}
		if n == 0 {
			continue
		}
		e.o.stats.EngineWakeups.Add(1)
		for i := 0; i < n; i++ {
			e.mu.Lock()
			ec := e.conns[events[i].Fd]
			if ec != nil && ec.gen != events[i].Pad {
				ec = nil // stale event from a prior occupant of this fd
			}
			e.mu.Unlock()
			if ec != nil {
				e.wake(ec)
			}
		}
	}
}

// wake runs the event side of the exclusivity protocol: start
// servicing an idle connection, or leave a note for the dispatcher
// already on it. The CAS pair (idle→running here, running→idle in
// service) also orders the framer handoff between dispatchers.
func (e *engine) wake(ec *engineConn) {
	for {
		switch ec.state.Load() {
		case connIdle:
			if ec.state.CompareAndSwap(connIdle, connRunning) {
				e.service(ec)
				return
			}
		case connRunning:
			if ec.state.CompareAndSwap(connRunning, connRunnable) {
				return
			}
		default: // already noted
			return
		}
	}
}

// service runs one pass over a ready connection: nonblocking scatter
// reads feed the connection's framer (carried bytes are replayed
// first) and each completed logical message is handled inline. The pass ends by parking the connection back to idle
// (socket drained to EAGAIN — unless an edge arrived mid-pass, in
// which case the note is consumed and the pass continues), by yielding
// (per-pass message budget ran out: park idle and kick the fd so the
// still-buffered bytes re-fire as a fresh event, letting other ready
// connections grab a dispatcher first), or by dropping the connection
// (EOF, error, protocol violation) — terminal paths leave the state at
// running so late events are no-ops.
func (e *engine) service(ec *engineConn) {
	c := ec.c
	f := &c.frame
	budget := engineWakeupBatch
	for c.healthy() {
		regions, n := f.next()
		if n == 0 {
			var again bool
			var err error
			n, again, err = e.rawRead(ec, regions)
			if err != nil {
				c.close(err)
				f.drop()
				return
			}
			if again {
				// A parked connection holds no speculative buffers.
				f.idle()
				if e.park(ec) {
					return
				}
				continue
			}
		}
		hdr, body, ok, err := f.advance(n)
		if err != nil {
			c.protocolError("%v", err)
			return
		}
		if !ok {
			continue
		}
		if !c.handleMessage(hdr, body, true) {
			// handleMessage closed the connection (its hook already
			// deregistered the fd) and consumed body.
			f.drop()
			return
		}
		// Carried bytes fire no event: the pass replays them before it
		// may yield.
		if budget--; budget <= 0 && !f.buffered() {
			// Fairness yield: park and kick. The epoll_ctl MOD re-fires
			// an event for the still-readable fd, so the connection
			// rejoins the ready set behind the others; if a racing edge
			// already claimed it, the kicked event dies in wake's
			// stale/noted filtering.
			ec.state.Store(connIdle)
			_ = ec.raw.Control(ec.kickFn)
			return
		}
	}
}

// park attempts to return a drained connection to idle. It reports
// false when an edge arrived during the pass (the note is consumed and
// the caller must keep reading: the bytes behind that edge will never
// fire again).
func (e *engine) park(ec *engineConn) bool {
	for {
		if ec.state.CompareAndSwap(connRunning, connIdle) {
			return true
		}
		if ec.state.CompareAndSwap(connRunnable, connRunning) {
			return false
		}
	}
}

// rawRead performs one nonblocking readv of the framer's regions on the
// connection's socket via the prebuilt callback. again=true means the
// socket is drained (EAGAIN) — park and leave. The callback never parks
// (returns true): waiting is the epoll set's job, not the runtime
// poller's.
func (e *engine) rawRead(ec *engineConn, regions [][]byte) (n int, again bool, err error) {
	ec.readIov = transport.SetIovecs(ec.readIov, regions)
	cerr := ec.raw.Read(ec.readFn)
	clear(ec.readIov)
	if cerr != nil {
		return 0, false, cerr
	}
	n, again, err = ec.readN, ec.readAgain, ec.readErr
	if err == nil && !again && n == 0 {
		err = io.EOF
	}
	return n, again, err
}
