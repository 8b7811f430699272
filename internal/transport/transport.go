// Package transport abstracts the byte-stream substrate under the ORB:
// plain TCP, an in-process pipe for tests and single-host clusters, and
// a "copying stack" shim that emulates the per-byte costs of the
// standard 2003-era TCP/IP path the paper benchmarks against.
//
// The zero-copy discipline of the paper maps onto two primitives:
//
//   - WriteGather: hand the transport a list of segments (header +
//     payload references) to send as one logical message without first
//     assembling them in a contiguous buffer. On real TCP this becomes
//     writev via net.Buffers; the payload bytes are never copied in
//     user space.
//   - ReadFull: deposit exactly n bytes straight into a caller-supplied
//     (page-aligned) buffer — the receive half of direct deposit.
//   - ReadScatter: the mirror of WriteGather, one read into a list of
//     regions (readv on TCP), so a receiver that predicts a message's
//     layout takes header, body and payload in one syscall, each in its
//     final buffer.
//
// The Copying wrapper adds explicit memcpy passes on both sides,
// emulating the kernel socket-buffer copies that the paper's
// speculative-defragmentation stack removes; it lets the benchmark
// harness reproduce the standard-stack/zero-copy-stack contrast of
// Figure 6 inside one address space.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
)

// Conn is a reliable byte-stream connection.
type Conn interface {
	io.Reader
	io.Writer
	io.Closer
	// WriteGather writes the segments back to back as one logical
	// message. Implementations must not retain the segments after
	// returning and should avoid copying them where the OS allows.
	WriteGather(segs ...[]byte) (int64, error)
	// ReadScatter reads into the regions in order, as one read, and
	// returns the bytes read across them: like Read, it blocks until at
	// least one byte arrives or fails. Implementations that cannot
	// scatter — every wrapper that intercepts Read — fill only the
	// first region, so their read counts stay those of Read. One reader
	// at a time, as with Read.
	ReadScatter(regions ...[]byte) (int, error)
	// LocalAddr and RemoteAddr return endpoint descriptions.
	LocalAddr() string
	RemoteAddr() string
}

// RawConner is implemented by connections that can expose their
// underlying OS socket for readiness registration — the hook the
// server-side event engine (internal/orb, docs/PERF.md "Event-driven
// connection engine") uses to park idle connections in an epoll set
// instead of a goroutine. Wrappers that intercept Read (Copying,
// Faulty) deliberately do NOT forward it: the engine's raw socket
// reads would bypass their instrumentation, so wrapped connections
// fall back to the goroutine-per-conn tier.
type RawConner interface {
	SyscallConn() (syscall.RawConn, error)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the bound address in a form Dial accepts.
	Addr() string
}

// Transport creates listeners and outbound connections.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
	// Name identifies the transport ("tcp", "inproc", "copying(tcp)").
	Name() string
}

// Stats counts transport activity. All fields are updated atomically
// and may be read concurrently.
type Stats struct {
	BytesSent      atomic.Int64
	BytesRecv      atomic.Int64
	Writes         atomic.Int64
	Reads          atomic.Int64
	GatherSegments atomic.Int64
	// EmulatedCopyBytes counts bytes passed through the Copying
	// wrapper's explicit memcpy stages (the simulated kernel copies).
	EmulatedCopyBytes atomic.Int64
}

// Snapshot returns a plain-struct copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesSent:         s.BytesSent.Load(),
		BytesRecv:         s.BytesRecv.Load(),
		Writes:            s.Writes.Load(),
		Reads:             s.Reads.Load(),
		GatherSegments:    s.GatherSegments.Load(),
		EmulatedCopyBytes: s.EmulatedCopyBytes.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	BytesSent, BytesRecv, Writes, Reads int64
	GatherSegments, EmulatedCopyBytes   int64
}

// ---------------------------------------------------------------------------
// TCP

// TCP is the production transport: stream sockets with writev-based
// gather sends.
type TCP struct {
	// Stats, if non-nil, receives counter updates from all
	// connections created by this transport.
	Stats *Stats
}

// Name implements Transport.
func (t *TCP) Name() string { return "tcp" }

// Listen implements Transport.
func (t *TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l, stats: t.Stats}, nil
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tuneTCP(tc)
	}
	return newTCPConn(c, t.Stats), nil
}

// tcpSockBuf sizes each socket buffer to hold a whole deposit train so a
// gather writev returns without lock-stepping the writer and reader
// through the kernel's (small) autotuned default. Clamped by the kernel
// to net.core.{r,w}mem_max; oversizing is harmless.
const tcpSockBuf = 4 << 20

func tuneTCP(tc *net.TCPConn) {
	// Latency matters for the control path; the data path sends
	// large gathers that fill frames anyway.
	_ = tc.SetNoDelay(true)
	_ = tc.SetReadBuffer(tcpSockBuf)
	_ = tc.SetWriteBuffer(tcpSockBuf)
}

type tcpListener struct {
	l     net.Listener
	stats *Stats
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tuneTCP(tc)
	}
	return newTCPConn(c, l.stats), nil
}

func (l *tcpListener) Close() error { return l.l.Close() }
func (l *tcpListener) Addr() string { return l.l.Addr().String() }

type tcpConn struct {
	c     net.Conn
	stats *Stats
	wmu   sync.Mutex  // serializes writes so gathers stay contiguous
	gbufs net.Buffers // writev scratch, guarded by wmu
	// rv is the readv state of ReadScatter (nil where the socket is not
	// exposed or the platform has no readv): the reader owns it.
	rv *scatterReader
}

func newTCPConn(c net.Conn, stats *Stats) *tcpConn {
	tc := &tcpConn{c: c, stats: stats}
	if sc, ok := c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			tc.rv = newScatterReader(raw)
		}
	}
	return tc
}

func (c *tcpConn) Read(p []byte) (int, error) {
	n, err := c.c.Read(p)
	if c.stats != nil && n > 0 {
		c.stats.BytesRecv.Add(int64(n))
		c.stats.Reads.Add(1)
	}
	return n, err
}

// ReadScatter is one readv through the runtime poller; a single region
// is a plain Read.
func (c *tcpConn) ReadScatter(regions ...[]byte) (int, error) {
	if len(regions) == 1 || c.rv == nil {
		return c.Read(regions[0])
	}
	n, err := c.rv.read(regions)
	if c.stats != nil && n > 0 {
		c.stats.BytesRecv.Add(int64(n))
		c.stats.Reads.Add(1)
	}
	return n, err
}

func (c *tcpConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	n, err := c.c.Write(p)
	c.wmu.Unlock()
	c.countWrite(int64(n))
	return n, err
}

func (c *tcpConn) WriteGather(segs ...[]byte) (int64, error) {
	c.wmu.Lock()
	n, err := writev(c.c, &c.gbufs, segs...)
	c.wmu.Unlock()
	if c.stats != nil {
		c.stats.BytesSent.Add(n)
		c.stats.Writes.Add(1)
		c.stats.GatherSegments.Add(int64(len(segs)))
	}
	return n, err
}

// writeTrain is WriteTrain on tcp, under one wmu hold so the train
// stays contiguous: each run of byte segments goes out in one writev
// and each file region by sendfile, each counted as one write.
func (c *tcpConn) writeTrain(train []Segment) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var total int64
	flush := func() error {
		if len(c.gbufs) == 0 {
			return nil
		}
		n, err := writev(c.c, &c.gbufs)
		total += n
		c.countWrite(n)
		return err
	}
	for i := range train {
		s := &train[i]
		if s.File == nil {
			if len(s.B) > 0 {
				c.gbufs = append(c.gbufs, s.B)
			}
			continue
		}
		if err := flush(); err != nil {
			return total, err
		}
		n, err := c.sendFileLocked(s)
		total += n
		c.countWrite(n)
		if err != nil {
			return total, err
		}
	}
	return total, flush()
}

func (c *tcpConn) countWrite(n int64) {
	if c.stats != nil && n > 0 {
		c.stats.BytesSent.Add(n)
		c.stats.Writes.Add(1)
	}
}

// writev appends the non-empty segs to the batch already in *scratch
// and writes the whole batch to w back to back (one writev on a
// socket). scratch is the connection's reusable gather array, guarded
// by its write lock: reusing it keeps steady-state gather writes from
// allocating a net.Buffers per call. It is left empty, holding no
// reference that would pin caller buffers until the next write.
func writev(w io.Writer, scratch *net.Buffers, segs ...[]byte) (int64, error) {
	for _, s := range segs {
		if len(s) > 0 {
			*scratch = append(*scratch, s)
		}
	}
	var total int64
	for _, s := range *scratch {
		total += int64(len(s))
	}
	bufs := *scratch // WriteTo consumes this copy of the slice header
	n, err := bufs.WriteTo(w)
	clear(*scratch)
	*scratch = (*scratch)[:0]
	if err != nil {
		return n, fmt.Errorf("transport: gather write: %w", err)
	}
	if n != total {
		return n, fmt.Errorf("transport: gather write short: %d of %d", n, total)
	}
	return n, nil
}

// firstNonEmpty returns the first segment with any bytes: what a
// promoting transport inspects for the "ZCDC" data-channel preamble.
func firstNonEmpty(segs [][]byte) []byte {
	for _, s := range segs {
		if len(s) > 0 {
			return s
		}
	}
	return nil
}

func (c *tcpConn) Close() error       { return c.c.Close() }
func (c *tcpConn) LocalAddr() string  { return c.c.LocalAddr().String() }
func (c *tcpConn) RemoteAddr() string { return c.c.RemoteAddr().String() }

// SyscallConn implements RawConner: TCP connections expose their socket
// so the server-side event engine can register them for readiness.
func (c *tcpConn) SyscallConn() (syscall.RawConn, error) {
	sc, ok := c.c.(syscall.Conn)
	if !ok {
		return nil, errors.New("transport: connection does not expose a raw socket")
	}
	return sc.SyscallConn()
}

// ---------------------------------------------------------------------------
// In-process transport

// InProc is an in-memory transport keyed by arbitrary address strings.
// It backs single-process clusters (the simulated testbed) and tests.
type InProc struct {
	Stats *Stats

	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

// Name implements Transport.
func (t *InProc) Name() string { return "inproc" }

// Listen implements Transport. The empty address or ":0" allocates a
// fresh unique address.
func (t *InProc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listeners == nil {
		t.listeners = make(map[string]*inprocListener)
	}
	if addr == "" || addr == ":0" {
		t.nextAuto++
		addr = fmt.Sprintf("inproc-%d", t.nextAuto)
	}
	if _, exists := t.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: inproc address %q in use", addr)
	}
	l := &inprocListener{t: t, addr: addr, ch: make(chan Conn, 16)}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *InProc) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: inproc address %q not listening", addr)
	}
	a, b := net.Pipe()
	ca := &pipeConn{c: a, stats: t.Stats, local: "inproc-client", remote: addr}
	cb := &pipeConn{c: b, stats: t.Stats, local: addr, remote: "inproc-client"}
	if err := l.deliver(cb); err != nil {
		_ = a.Close()
		_ = b.Close()
		return nil, err
	}
	return ca, nil
}

func (t *InProc) remove(addr string) {
	t.mu.Lock()
	delete(t.listeners, addr)
	t.mu.Unlock()
}

type inprocListener struct {
	t    *InProc
	addr string
	ch   chan Conn

	// mu serializes delivery against Close so a dial racing a shutdown
	// gets a clean error instead of a send on a closed channel.
	mu     sync.Mutex
	closed bool
}

// deliver queues an accepted connection, failing (instead of
// panicking or hanging) when the listener has been closed.
func (l *inprocListener) deliver(c Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("transport: inproc address %q not listening", l.addr)
	}
	select {
	case l.ch <- c:
		return nil
	default:
		return fmt.Errorf("transport: inproc accept queue full for %q", l.addr)
	}
}

func (l *inprocListener) Accept() (Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, errors.New("transport: inproc listener closed")
	}
	return c, nil
}

func (l *inprocListener) Close() error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.t.remove(l.addr)
		close(l.ch)
	}
	l.mu.Unlock()
	// Connections already queued but never accepted would strand their
	// dialers mid-handshake; close them so the peer errors promptly.
	for c := range l.ch {
		_ = c.Close()
	}
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

type pipeConn struct {
	c             net.Conn
	stats         *Stats
	local, remote string
	wmu           sync.Mutex
}

func (c *pipeConn) Read(p []byte) (int, error) {
	n, err := c.c.Read(p)
	if c.stats != nil && n > 0 {
		c.stats.BytesRecv.Add(int64(n))
		c.stats.Reads.Add(1)
	}
	return n, err
}

func (c *pipeConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	n, err := c.c.Write(p)
	c.wmu.Unlock()
	if c.stats != nil && n > 0 {
		c.stats.BytesSent.Add(int64(n))
		c.stats.Writes.Add(1)
	}
	return n, err
}

func (c *pipeConn) WriteGather(segs ...[]byte) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var total int64
	for _, s := range segs {
		if len(s) == 0 {
			continue
		}
		n, err := c.c.Write(s)
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("transport: inproc gather write: %w", err)
		}
	}
	if c.stats != nil {
		c.stats.BytesSent.Add(total)
		c.stats.Writes.Add(1)
		c.stats.GatherSegments.Add(int64(len(segs)))
	}
	return total, nil
}

// ReadScatter fills the first region only: a pipe has no readv.
func (c *pipeConn) ReadScatter(regions ...[]byte) (int, error) { return c.Read(regions[0]) }

func (c *pipeConn) Close() error       { return c.c.Close() }
func (c *pipeConn) LocalAddr() string  { return c.local }
func (c *pipeConn) RemoteAddr() string { return c.remote }

// ---------------------------------------------------------------------------
// Copying stack shim

// Copying wraps another transport and performs SendCopies explicit
// buffer copies on every write and RecvCopies on every read,
// reproducing the per-byte cost profile of the standard (copying)
// TCP/IP stack of the paper's era: one user-to-kernel copy on send,
// one kernel-to-user copy on receive, plus an optional driver
// defragmentation copy. The zero-copy stack of [10] corresponds to
// wrapping with zero copies — i.e. not wrapping at all.
type Copying struct {
	Inner      Transport
	SendCopies int
	RecvCopies int
	Stats      *Stats
}

// Name implements Transport.
func (t *Copying) Name() string { return "copying(" + t.Inner.Name() + ")" }

// Listen implements Transport.
func (t *Copying) Listen(addr string) (Listener, error) {
	l, err := t.Inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &copyingListener{l: l, t: t}, nil
}

// Dial implements Transport.
func (t *Copying) Dial(addr string) (Conn, error) {
	c, err := t.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &copyingConn{c: c, t: t}, nil
}

type copyingListener struct {
	l Listener
	t *Copying
}

func (l *copyingListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return &copyingConn{c: c, t: l.t}, nil
}

func (l *copyingListener) Close() error { return l.l.Close() }
func (l *copyingListener) Addr() string { return l.l.Addr() }

type copyingConn struct {
	c       Conn
	t       *Copying
	sendBuf []byte
	recvBuf []byte
	wmu     sync.Mutex
	rmu     sync.Mutex
}

// churn performs k copy passes of p through a scratch buffer, charging
// the bytes to the stats. The scratch is reused so the shim measures
// copy bandwidth, not allocator throughput.
func (c *copyingConn) churn(scratch *[]byte, p []byte, k int) {
	if k <= 0 || len(p) == 0 {
		return
	}
	if cap(*scratch) < len(p) {
		*scratch = make([]byte, len(p))
	}
	buf := (*scratch)[:len(p)]
	for i := 0; i < k; i++ {
		copy(buf, p)
	}
	if c.t.Stats != nil {
		c.t.Stats.EmulatedCopyBytes.Add(int64(len(p)) * int64(k))
	}
}

func (c *copyingConn) Read(p []byte) (int, error) {
	n, err := c.c.Read(p)
	if n > 0 {
		c.rmu.Lock()
		c.churn(&c.recvBuf, p[:n], c.t.RecvCopies)
		c.rmu.Unlock()
	}
	return n, err
}

func (c *copyingConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	c.churn(&c.sendBuf, p, c.t.SendCopies)
	c.wmu.Unlock()
	return c.c.Write(p)
}

func (c *copyingConn) WriteGather(segs ...[]byte) (int64, error) {
	c.wmu.Lock()
	for _, s := range segs {
		c.churn(&c.sendBuf, s, c.t.SendCopies)
	}
	c.wmu.Unlock()
	return c.c.WriteGather(segs...)
}

// ReadScatter fills the first region only, through the emulated copies.
func (c *copyingConn) ReadScatter(regions ...[]byte) (int, error) { return c.Read(regions[0]) }

func (c *copyingConn) Close() error       { return c.c.Close() }
func (c *copyingConn) LocalAddr() string  { return c.c.LocalAddr() }
func (c *copyingConn) RemoteAddr() string { return c.c.RemoteAddr() }
