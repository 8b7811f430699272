//go:build linux

// The kernel zero-copy transport: plain TCP sockets whose data-channel
// connections send large payloads with MSG_ZEROCOPY (the kernel pins
// the pages; a completion on the socket error queue reports when they
// may be reused) and transmit file-backed payloads disk→wire with
// sendfile. Every connection starts as a plain stream; the DIALER
// promotes it when (and only when) its first write begins with the ZC
// data preamble "ZCDC" — i.e. exactly the connections the ORB uses as
// data channels, mirroring the shm promotion. Promotion prepends one
// 16-byte header carrying the dialer's zero-copy threshold, so both
// ends agree on when MSG_ZEROCOPY is worth attempting. Control
// connections (GIOP first bytes) never promote and behave like plain
// TCP.
//
// Completion semantics: each MSG_ZEROCOPY sendmsg consumes one 32-bit
// per-socket sequence number; the kernel reports inclusive ranges
// [ee_info, ee_data] of completed sequences as SO_EE_ORIGIN_ZEROCOPY
// extended errors on the error queue, merging adjacent ranges. A
// completion with SO_EE_CODE_ZEROCOPY_COPIED set means the kernel fell
// back to copying (loopback, or a NIC without SG) — the send still
// succeeded, the pages were just not pinned. CopiedLimit>0 degrades
// the connection after that many consecutive copied completions so
// callers stop paying the pinning overhead for nothing.
// docs/ZEROCOPY.md has the full contract.

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Linux socket constants absent from the stdlib syscall package.
const (
	soZeroCopy  = 60        // SO_ZEROCOPY (SOL_SOCKET)
	msgZeroCopy = 0x4000000 // MSG_ZEROCOPY sendmsg flag

	soEEOriginZeroCopy     = 5 // sock_extended_err.ee_origin for zc completions
	soEECodeZeroCopyCopied = 1 // ee_code bit: kernel copied after all
)

// kzcPromoMagic opens the 16-byte promotion header:
//
//	magic[8] | threshold u32 | reserved u32
//
// little-endian. The threshold is the dialer's zero-copy threshold;
// the acceptor adopts it for its reply deposits so both directions of
// the channel agree.
const kzcPromoMagic = "ZKZCTCP1"

const kzcPromoLen = 16

// kzcMaxThreshold caps the peer-negotiated zero-copy threshold. The
// header field is a u32; a hostile or corrupt value >= 2^31 would wrap
// negative through the int32 store and force every deposit — any size —
// onto the MSG_ZEROCOPY path, letting a peer impose pinning/completion
// overhead on all sends. Out-of-range values are ignored in favor of
// the local default.
const kzcMaxThreshold = 1 << 30

// KZC is the kernel zero-copy transport. See the package comment above
// for the promotion protocol and completion semantics.
type KZC struct {
	// Threshold is the minimum payload size for MSG_ZEROCOPY sends
	// (default DefaultZeroCopyThreshold). Smaller payloads take the
	// plain write path.
	Threshold int
	// CopiedLimit, when > 0, degrades a connection to plain writes
	// after that many consecutive copied completions (the kernel is
	// copying anyway, so pinning buys nothing). 0 tolerates copied
	// completions forever — the right default on loopback, where every
	// completion is copied but the accounting stays exercised.
	CopiedLimit int
	// Disable treats the kernel as lacking SO_ZEROCOPY (tests of the
	// degraded-kernel fallback): connections still promote and carry
	// deposits, but a Deposit needing by-reference sends reports
	// ErrZeroCopyUnavailable. File regions (sendfile) are unaffected.
	Disable bool
	Stats   *Stats
	// Faults, if non-nil, is consulted directly by kzc connections:
	// zero-copy sends and sendfile transfers classify as ClassKzc.
	// (Wrapping KZC in Faulty would hide the Depositor capability, so
	// the injector is embedded instead, like SHM.)
	Faults *FaultInjector
}

// Name implements Transport.
func (t *KZC) Name() string { return "kzc" }

func (t *KZC) threshold() int {
	if t.Threshold > 0 {
		return t.Threshold
	}
	return DefaultZeroCopyThreshold
}

// Listen implements Transport. The empty address (or ":0") binds
// 127.0.0.1 on an ephemeral port.
func (t *KZC) Listen(addr string) (Listener, error) {
	addr = trimKzc(addr)
	if addr == "" || addr == ":0" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: kzc listen %s: %w", addr, err)
	}
	return &kzcListener{l: l.(*net.TCPListener), t: t}, nil
}

// Dial implements Transport. Dial events are classless: only ClassAny
// injector rules match, mirroring Faulty.Dial.
func (t *KZC) Dial(addr string) (Conn, error) {
	if t.Faults != nil {
		if r := t.Faults.decide(OpDial, ClassAny); r != nil {
			switch r.Kind {
			case FaultStall, FaultSlow:
				time.Sleep(r.Delay)
			default:
				return nil, fmt.Errorf("transport: kzc dial %s: injected %s", addr, r.Kind)
			}
		}
	}
	c, err := net.Dial("tcp", trimKzc(addr))
	if err != nil {
		return nil, fmt.Errorf("transport: kzc dial %s: %w", addr, err)
	}
	return newKzcConn(t, c.(*net.TCPConn), true)
}

// trimKzc accepts both "kzc://host:port" URIs and bare addresses.
func trimKzc(addr string) string {
	const pfx = "kzc://"
	if len(addr) >= len(pfx) && addr[:len(pfx)] == pfx {
		return addr[len(pfx):]
	}
	return addr
}

type kzcListener struct {
	l *net.TCPListener
	t *KZC
}

func (l *kzcListener) Accept() (Conn, error) {
	c, err := l.l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	return newKzcConn(l.t, c, false)
}

func (l *kzcListener) Close() error { return l.l.Close() }
func (l *kzcListener) Addr() string { return "kzc://" + l.l.Addr().String() }

func newKzcConn(t *KZC, tc *net.TCPConn, dialer bool) (*kzcConn, error) {
	_ = tc.SetNoDelay(true)
	raw, err := tc.SyscallConn()
	if err != nil {
		_ = tc.Close()
		return nil, fmt.Errorf("transport: kzc raw conn: %w", err)
	}
	c := &kzcConn{t: t, tc: tc, raw: raw, dialer: dialer,
		reapWake: make(chan struct{}, 1), closed: make(chan struct{})}
	c.thresh.Store(int32(t.threshold()))
	c.sendFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall(syscall.SYS_SENDMSG, fd,
			uintptr(unsafe.Pointer(&c.sendMsg)), uintptr(msgZeroCopy))
		if e != 0 {
			c.sendN, c.sendErr = 0, e
		} else {
			c.sendN, c.sendErr = int(n), nil
		}
		return c.sendErr != syscall.EAGAIN
	}
	c.reapFn = func(fd uintptr) {
		_, c.reapN, _, _, c.reapErr = syscall.Recvmsg(int(fd), c.reapDummy[:],
			c.oob[:], syscall.MSG_ERRQUEUE|syscall.MSG_DONTWAIT)
	}
	return c, nil
}

// kzcPending tracks the completion callback of one Deposit train: the
// inclusive sequence range its sendmsgs consumed, how many sequences
// are still outstanding, and whether any completed as copied. The
// entry is registered BEFORE the write's first sendmsg and stays open
// while the send loop runs: the kernel merges adjacent completion
// ranges across writes, so the reaper can see a range covering this
// write's sequences (merged with an earlier write's) before the loop
// finishes, and must find the entry rather than drop the range. An
// open entry never fires, even at remain==0, until the writer closes
// it.
type kzcPending struct {
	lo, hi uint32
	remain int
	nseq   int  // sequences reserved over the entry's lifetime
	open   bool // send loop still running; hold even at remain==0
	copied bool
	done   func(copied bool)
}

// kzcConn is one connection: a TCP stream that may promote to
// zero-copy data-channel mode. Plain reads/writes behave exactly like
// the TCP transport; Deposit adds the kernel-assist paths.
type kzcConn struct {
	t      *KZC
	tc     *net.TCPConn
	raw    syscall.RawConn
	dialer bool

	// zcOn: SO_ZEROCOPY active on this socket (set at promotion /
	// probe). zcDown: degraded after copied-completion streak. thresh:
	// the negotiated zero-copy threshold.
	zcOn   atomic.Bool
	zcDown atomic.Bool
	thresh atomic.Int32

	wmu       sync.Mutex
	gbufs     net.Buffers // writev scratch
	noPromote bool        // dialer: first write was not ZCDC
	promoted  bool        // dialer: promotion header sent

	// Zero-copy send scratch (wmu held): the iovec array and msghdr of
	// the vectored MSG_ZEROCOPY sendmsg, plus its raw.Write callback —
	// built once so the per-send fast path allocates nothing.
	sendFn  func(fd uintptr) bool
	sendVec []syscall.Iovec
	sendMsg syscall.Msghdr
	sendN   int
	sendErr error

	rmu      sync.Mutex
	probed   bool   // acceptor: promotion probe done
	leftover []byte // acceptor: stream bytes consumed by the probe

	// Completion bookkeeping. sendSeq mirrors the kernel's per-socket
	// zero-copy counter (incremented per successful MSG_ZEROCOPY
	// sendmsg); pend holds registered callbacks in FIFO order.
	cmu         sync.Mutex
	sendSeq     uint32
	pend        []*kzcPending
	pendFree    []*kzcPending
	copiedRun   int // consecutive copied completions
	outstanding atomic.Int32

	// Errqueue reap scratch, guarded by reapMu (one reaper at a time;
	// concurrent callers skip — the active one drains everything). The
	// prebuilt raw.Control callback keeps the reap path allocation-free.
	reapMu    sync.Mutex
	reapFn    func(fd uintptr)
	reapN     int
	reapErr   error
	reapDummy [1]byte
	oob       [512]byte
	fired     []*kzcPending

	reaperOnce sync.Once
	reapWake   chan struct{} // signals the parked reaper on registration
	closed     chan struct{}
	closeOnce  sync.Once
	closeErr   error
}

// Threshold implements Depositor.
func (c *kzcConn) Threshold() int { return int(c.thresh.Load()) }

// setZeroCopy enables SO_ZEROCOPY on the socket; failure (EOPNOTSUPP
// on old kernels, or Disable) leaves the connection on plain writes.
func (c *kzcConn) setZeroCopy() {
	if c.t.Disable {
		return
	}
	var serr error
	if err := c.raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soZeroCopy, 1)
	}); err == nil && serr == nil {
		c.zcOn.Store(true)
	}
}

// promoteLocked (dialer, wmu held) sends the promotion header and
// enables SO_ZEROCOPY. The header precedes the caller's first bytes on
// the stream; a write failure surfaces through the caller's write.
func (c *kzcConn) promoteLocked() error {
	c.promoted = true
	var hdr [kzcPromoLen]byte
	copy(hdr[:], kzcPromoMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.t.threshold()))
	if _, err := c.tc.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: kzc promotion header: %w", err)
	}
	c.setZeroCopy()
	return nil
}

// probeLocked (acceptor, rmu held) inspects the first bytes of the
// stream: a promotion header adopts the dialer's threshold and enables
// SO_ZEROCOPY for reply deposits; anything else stays a plain stream
// with the probed bytes kept as read leftover.
func (c *kzcConn) probeLocked() error {
	c.probed = true
	var hdr [kzcPromoLen]byte
	got, err := io.ReadFull(c.tc, hdr[:8])
	if err != nil {
		c.leftover = append([]byte(nil), hdr[:got]...)
		if got > 0 {
			return nil // deliver what arrived; the error resurfaces next read
		}
		return err
	}
	if string(hdr[:8]) != kzcPromoMagic {
		c.leftover = append([]byte(nil), hdr[:8]...)
		return nil
	}
	if _, err := io.ReadFull(c.tc, hdr[8:]); err != nil {
		return fmt.Errorf("transport: kzc promotion header: %w", err)
	}
	if th := binary.LittleEndian.Uint32(hdr[8:]); th > 0 && th <= kzcMaxThreshold {
		c.thresh.Store(int32(th))
	}
	c.setZeroCopy()
	return nil
}

func (c *kzcConn) countRead(n int) {
	if c.t.Stats != nil && n > 0 {
		c.t.Stats.BytesRecv.Add(int64(n))
		c.t.Stats.Reads.Add(1)
	}
}

func (c *kzcConn) countWrite(n int64, segs int) {
	if c.t.Stats != nil && n > 0 {
		c.t.Stats.BytesSent.Add(n)
		c.t.Stats.Writes.Add(1)
		if segs > 0 {
			c.t.Stats.GatherSegments.Add(int64(segs))
		}
	}
}

func (c *kzcConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	if !c.dialer && !c.probed {
		if err := c.probeLocked(); err != nil {
			c.rmu.Unlock()
			return 0, err
		}
	}
	if len(c.leftover) > 0 {
		n := copy(p, c.leftover)
		c.leftover = c.leftover[n:]
		c.rmu.Unlock()
		c.countRead(n)
		return n, nil
	}
	c.rmu.Unlock()
	n, err := c.tc.Read(p)
	c.countRead(n)
	return n, err
}

// maybePromoteLocked runs the dialer-side promotion check on the first
// write (wmu held).
func (c *kzcConn) maybePromoteLocked(first []byte) error {
	if !c.dialer || c.promoted || c.noPromote {
		return nil
	}
	if len(first) >= 4 && string(first[:4]) == "ZCDC" {
		return c.promoteLocked()
	}
	c.noPromote = true
	return nil
}

func (c *kzcConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	if err := c.maybePromoteLocked(p); err != nil {
		c.wmu.Unlock()
		return 0, err
	}
	n, err := c.tc.Write(p)
	c.wmu.Unlock()
	c.countWrite(int64(n), 0)
	return n, err
}

func (c *kzcConn) WriteGather(segs ...[]byte) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.maybePromoteLocked(firstNonEmpty(segs)); err != nil {
		return 0, err
	}
	n, err := writev(c.tc, &c.gbufs, segs...)
	c.countWrite(n, len(segs))
	return n, err
}

// Deposit implements Depositor: one walk over the train under one wmu
// hold. Plain segments batch into writevs, each run of by-reference
// segments goes out as one vectored MSG_ZEROCOPY send (normally a
// single sendmsg and a single completion sequence for the whole run),
// and file regions go disk→wire with sendfile. See the interface
// contract in direct.go.
func (c *kzcConn) Deposit(train []Segment, done func(copied bool)) (int64, error) {
	th := c.Threshold()
	refs, files := false, false
	for i := range train {
		refs = refs || train[i].ByRef(th)
		files = files || train[i].File != nil
	}
	if refs && (!c.zcOn.Load() || c.zcDown.Load()) {
		return 0, ErrZeroCopyUnavailable
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// A train is never the "ZCDC" preamble: a dialer whose first write
	// is a deposit stays a plain stream.
	if err := c.maybePromoteLocked(nil); err != nil {
		return 0, err
	}
	// plain sends by-reference segments as ordinary bytes (ENOBUFS
	// degradation); short cuts file regions in half (injected).
	plain, short := false, false
	if c.t.Faults != nil && (refs || files) {
		if r := c.t.Faults.decide(OpWrite, ClassKzc); r != nil {
			switch r.Kind {
			case FaultENOBUFS:
				// Kernel can't pin pages: the train degrades to plain
				// copying writes, completed immediately as copied.
				plain = true
			case FaultDropCompletion:
				// Bytes arrive, the completion never does: the caller's
				// lease sweeper must reclaim the buffers.
				plain, done = true, nil
			case FaultShortSplice:
				short = true
			case FaultReset, FaultPeerKill:
				if refs && done != nil {
					done(true)
				}
				_ = c.Close()
				return 0, fmt.Errorf("kzcconn: injected %s on deposit", r.Kind)
			case FaultStall, FaultSlow:
				time.Sleep(r.Delay)
			}
		}
	}
	// One pending entry, registered before the train's first sendmsg
	// and closed after its last, so one done covers every run.
	var pd *kzcPending
	if refs {
		pd = c.reservePending(done)
	}
	var total, n int64
	var err error
	for i := 0; i < len(train) && err == nil; i++ {
		s := &train[i]
		byRef := s.ByRef(th) && !plain
		if s.File == nil && !byRef {
			if len(s.B) > 0 {
				c.gbufs = append(c.gbufs, s.B) // rides the next flush
			}
			continue
		}
		// A kernel-assist send: what is batched goes out first.
		n, err = c.flushPlainLocked()
		total += n
		if err != nil {
			break
		}
		if byRef {
			j := i + 1
			for j < len(train) && train[j].ByRef(th) {
				j++
			}
			n, plain, err = c.sendRefsLocked(train[i:j], pd)
			i = j - 1
		} else {
			n, err = c.sendFileLocked(s, short)
		}
		total += n
	}
	if err == nil {
		n, err = c.flushPlainLocked()
		total += n
	}
	clear(c.gbufs) // an error may have left batched segments behind
	c.gbufs = c.gbufs[:0]
	if pd != nil {
		// Sequences already consumed complete via the reaper (or the
		// caller's sweeper) even when the stream broke mid-train.
		c.closePending(pd, plain || err != nil)
		c.reapOnce() // opportunistic non-blocking drain
	}
	return total, err
}

// flushPlainLocked writes the plain segments batched in gbufs, if any
// (wmu held).
func (c *kzcConn) flushPlainLocked() (int64, error) {
	if len(c.gbufs) == 0 {
		return 0, nil
	}
	n, err := writev(c.tc, &c.gbufs)
	c.countWrite(n, 0)
	return n, err
}

// sendRefsLocked is the only MSG_ZEROCOPY send (wmu held): it
// transmits a run of by-reference segments with vectored sendmsgs
// whose sequences extend pd. copied reports that the kernel refused to
// pin (ENOBUFS: optmem exhaustion) and the unsent tail went out as a
// plain copying write instead — the kernel holds no reference beyond
// the sequences already consumed.
func (c *kzcConn) sendRefsLocked(run []Segment, pd *kzcPending) (n int64, copied bool, err error) {
	var total int64
	for i := range run {
		total += int64(len(run[i].B))
	}
	for n < total {
		// Rebuild the iovec view of the unsent tail (a partial sendmsg
		// re-vectors from the new offset).
		iovs := c.sendVec[:0]
		skip := n
		for i := range run {
			b := run[i].B
			if skip >= int64(len(b)) {
				skip -= int64(len(b))
				continue
			}
			b, skip = b[skip:], 0
			iovs = append(iovs, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
		}
		c.sendVec = iovs
		c.sendMsg = syscall.Msghdr{Iov: &iovs[0], Iovlen: uint64(len(iovs))}
		// Reserve the sequence the sendmsg will consume BEFORE issuing
		// it: the kernel can queue (and the reaper drain) the completion
		// the moment the syscall returns, so recording the sequence
		// afterwards would race a merged completion against an
		// unregistered range.
		c.reserveSeq(pd)
		werr := c.raw.Write(c.sendFn)
		sent, serr := c.sendN, c.sendErr
		if werr != nil && serr == nil {
			serr = werr
		}
		if serr == syscall.ENOBUFS {
			// The iovec array is exactly the unsent tail.
			for _, v := range iovs {
				c.gbufs = append(c.gbufs, unsafe.Slice(v.Base, v.Len))
			}
		}
		c.sendMsg = syscall.Msghdr{}
		clear(c.sendVec)
		c.sendVec = c.sendVec[:0]
		if serr != nil {
			// A failed sendmsg consumed no kernel sequence (the kernel
			// aborts the zero-copy id on error), so the reservation
			// rolls back.
			c.unreserveSeq(pd)
			if serr != syscall.ENOBUFS {
				return n, false, fmt.Errorf("transport: kzc zero-copy send: %w", serr)
			}
			m, ferr := c.flushPlainLocked()
			return n + m, true, ferr
		}
		n += int64(sent)
	}
	c.countWrite(total, len(run))
	return n, false, nil
}

// sendFileLocked transmits one file region with sendfile (wmu held),
// disk→wire without entering user space. It works on any kzc
// connection regardless of SO_ZEROCOPY state.
func (c *kzcConn) sendFileLocked(s *Segment, short bool) (int64, error) {
	want := s.N
	if short {
		want /= 2
	}
	src := int(s.File.Fd())
	var sent int64
	for sent < want {
		chunk := int(min(want-sent, 1<<20))
		var wn int
		var serr error
		pos := s.Off + sent
		werr := c.raw.Write(func(fd uintptr) bool {
			wn, serr = syscall.Sendfile(int(fd), src, &pos, chunk)
			return serr != syscall.EAGAIN
		})
		if wn > 0 {
			sent += int64(wn)
		}
		if werr != nil && serr == nil {
			serr = werr
		}
		if serr == nil && wn == 0 {
			serr = io.ErrUnexpectedEOF
		}
		if serr != nil {
			c.countWrite(sent, 0)
			return sent, fmt.Errorf("transport: kzc sendfile: %w", serr)
		}
	}
	runtime.KeepAlive(s.File)
	c.countWrite(sent, 0)
	if sent < s.N {
		// Injected short splice: the stream is now desynced by design.
		return sent, fmt.Errorf("transport: kzc sendfile short: %d of %d", sent, s.N)
	}
	return sent, nil
}

// reservePending registers an open pending entry before a write's
// first MSG_ZEROCOPY sendmsg, so completions reaped while the send
// loop is still running always find their entry.
func (c *kzcConn) reservePending(done func(bool)) *kzcPending {
	c.cmu.Lock()
	var p *kzcPending
	if n := len(c.pendFree); n > 0 {
		p = c.pendFree[n-1]
		c.pendFree = c.pendFree[:n-1]
	} else {
		p = new(kzcPending)
	}
	p.lo, p.hi, p.remain, p.nseq, p.copied, p.done = 0, 0, 0, 0, false, done
	p.open = true
	c.pend = append(c.pend, p)
	c.cmu.Unlock()
	c.outstanding.Add(1)
	c.kickReaper()
	return p
}

// reserveSeq mirrors the kernel's per-socket zero-copy counter: it
// assigns the sequence the next successful MSG_ZEROCOPY sendmsg will
// consume and extends p to cover it.
func (c *kzcConn) reserveSeq(p *kzcPending) {
	c.cmu.Lock()
	seq := c.sendSeq
	c.sendSeq++
	if p.nseq == 0 {
		p.lo = seq
	}
	p.hi = seq
	p.nseq++
	p.remain++
	c.cmu.Unlock()
}

// unreserveSeq rolls back a reservation whose sendmsg failed outright:
// the kernel's counter did not advance, so no completion for the
// sequence can ever arrive. (wmu serializes writers, so the rolled-back
// sequence is reused by this write's next attempt or the next write.)
func (c *kzcConn) unreserveSeq(p *kzcPending) {
	c.cmu.Lock()
	c.sendSeq--
	p.hi--
	p.nseq--
	p.remain--
	c.cmu.Unlock()
}

// closePending ends a train's send loop: the entry stops accepting
// sequences and may now fire. If every reserved sequence has already
// completed (or none were consumed at all), done fires here; otherwise
// the reaper fires it when the last completion lands. copiedTail marks
// the write as copied when its tail bytes went out as a plain
// fallback write.
func (c *kzcConn) closePending(p *kzcPending, copiedTail bool) {
	c.cmu.Lock()
	p.open = false
	if copiedTail {
		p.copied = true
	}
	fire := p.remain <= 0
	if fire {
		for i, q := range c.pend {
			if q == p {
				copy(c.pend[i:], c.pend[i+1:])
				c.pend[len(c.pend)-1] = nil
				c.pend = c.pend[:len(c.pend)-1]
				break
			}
		}
	}
	cp, d := p.copied, p.done
	c.cmu.Unlock()
	if fire {
		c.recyclePending(p)
		c.outstanding.Add(-1)
		if d != nil {
			d(cp)
		}
	}
}

// kickReaper starts the background completion reaper on first use and
// wakes it if it is parked with nothing outstanding.
func (c *kzcConn) kickReaper() {
	c.reaperOnce.Do(func() { go c.reapLoop() })
	select {
	case c.reapWake <- struct{}{}:
	default:
	}
}

// reapLoop drains errqueue completions until the connection closes.
// The errqueue cannot be waited on through the runtime poller without
// also waking on data readability, so the loop polls at 500µs — but
// only while completions are outstanding. With none it parks on
// reapWake until the next write registers a pending entry, so an idle
// promoted connection costs no wakeups.
func (c *kzcConn) reapLoop() {
	for {
		if c.outstanding.Load() == 0 {
			select {
			case <-c.closed:
				return
			case <-c.reapWake:
			}
		}
		select {
		case <-c.closed:
			return
		default:
		}
		c.reapOnce()
		time.Sleep(500 * time.Microsecond)
	}
}

// reapOnce drains all currently queued completions (non-blocking).
// Only one reaper runs at a time; a concurrent caller skips, since the
// active one loops until the queue is empty anyway.
func (c *kzcConn) reapOnce() {
	if !c.reapMu.TryLock() {
		return
	}
	defer c.reapMu.Unlock()
	for {
		cerr := c.raw.Control(c.reapFn)
		if cerr != nil || c.reapErr != nil || c.reapN <= 0 {
			return
		}
		// Walk the cmsg chain by hand: the stdlib parser allocates per
		// message, and this runs once per completion on the hot path.
		fired := c.fired[:0]
		rem := c.oob[:c.reapN]
		c.cmu.Lock()
		for len(rem) >= syscall.SizeofCmsghdr {
			h := (*syscall.Cmsghdr)(unsafe.Pointer(&rem[0]))
			l := int(h.Len)
			if l < syscall.SizeofCmsghdr || l > len(rem) {
				break
			}
			data := rem[syscall.SizeofCmsghdr:l]
			// sock_extended_err: ee_errno u32 | ee_origin u8 | ee_type u8
			// | ee_code u8 | pad | ee_info u32 | ee_data u32.
			if isRecvErr(h.Level, h.Type) && len(data) >= 16 &&
				data[4] == soEEOriginZeroCopy {
				copied := data[6]&soEECodeZeroCopyCopied != 0
				clo := binary.NativeEndian.Uint32(data[8:])
				chi := binary.NativeEndian.Uint32(data[12:])
				fired = append(fired, c.completeRangeLocked(clo, chi, copied)...)
			}
			adv := syscall.CmsgSpace(l - syscall.SizeofCmsghdr)
			if adv <= 0 || adv > len(rem) {
				break
			}
			rem = rem[adv:]
		}
		c.cmu.Unlock()
		for _, p := range fired {
			cp := p.copied
			d := p.done
			c.recyclePending(p)
			c.outstanding.Add(-1)
			if d != nil {
				d(cp)
			}
		}
		clear(fired)
		c.fired = fired[:0]
	}
}

// completeRangeLocked applies one completion range [clo,chi] (inclusive
// kernel sequence numbers) to the pending list, returning the entries
// whose every sequence has now completed. Caller holds cmu.
func (c *kzcConn) completeRangeLocked(clo, chi uint32, copied bool) []*kzcPending {
	n := int(chi - clo + 1)
	if copied {
		c.copiedRun += n
		if lim := c.t.CopiedLimit; lim > 0 && c.copiedRun >= lim {
			c.zcDown.Store(true)
		}
	} else {
		c.copiedRun = 0
	}
	var full []*kzcPending
	kept := c.pend[:0]
	for _, p := range c.pend {
		// Overlap of [p.lo,p.hi] with [clo,chi]; sequence wraparound is
		// ignored (2^32 sends per connection is out of scope). An entry
		// with no reserved sequences yet has meaningless lo/hi and
		// cannot match; an open entry absorbs completions but is held
		// until its send loop closes it (more sequences may follow).
		lo, hi := max(p.lo, clo), min(p.hi, chi)
		if p.nseq > 0 && lo <= hi {
			p.remain -= int(hi - lo + 1)
			if copied {
				p.copied = true
			}
			if p.remain <= 0 && !p.open {
				full = append(full, p)
				continue
			}
		}
		kept = append(kept, p)
	}
	// Drop references past the kept prefix so completed entries are
	// not pinned by the backing array.
	for i := len(kept); i < len(c.pend); i++ {
		c.pend[i] = nil
	}
	c.pend = kept
	return full
}

func (c *kzcConn) recyclePending(p *kzcPending) {
	*p = kzcPending{}
	c.cmu.Lock()
	if len(c.pendFree) < 32 {
		c.pendFree = append(c.pendFree, p)
	}
	c.cmu.Unlock()
}

// isRecvErr reports whether a cmsg carries an extended socket error
// (IPv4 or IPv6 error queue).
func isRecvErr(level, typ int32) bool {
	return (level == syscall.SOL_IP && typ == syscall.IP_RECVERR) ||
		(level == syscall.SOL_IPV6 && typ == syscall.IPV6_RECVERR)
}

func (c *kzcConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		// Pending completion callbacks are deliberately NOT fired: the
		// kernel may still hold page references, and the caller's lease
		// sweeper is the authority on reclaiming them. But a graceful
		// close keeps transmitting queued zero-copy skbs that reference
		// the caller's pages — after the sweeper has released the
		// buffers for reuse, a reused-and-overwritten buffer would
		// corrupt bytes still going out on the wire. So while
		// completions are outstanding the close aborts (SO_LINGER 0 →
		// RST): the kernel purges the send queue and drops its page
		// references before Close returns, making the subsequent
		// buffer release safe.
		if c.outstanding.Load() > 0 {
			_ = c.raw.Control(func(fd uintptr) {
				_ = syscall.SetsockoptLinger(int(fd), syscall.SOL_SOCKET,
					syscall.SO_LINGER, &syscall.Linger{Onoff: 1, Linger: 0})
			})
		}
		c.closeErr = c.tc.Close()
	})
	return c.closeErr
}

func (c *kzcConn) LocalAddr() string  { return "kzc://" + c.tc.LocalAddr().String() }
func (c *kzcConn) RemoteAddr() string { return "kzc://" + c.tc.RemoteAddr().String() }
