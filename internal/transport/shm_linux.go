//go:build linux

// The shared-memory transport: control bytes ride a Unix domain
// socket, bulk payloads a memfd-backed ring pair mapped by both
// processes (internal/shmem). Every connection starts as a plain UDS
// stream; the DIALER promotes it to ring mode when (and only when) its
// first write begins with the ZC data preamble "ZCDC" — i.e. exactly
// the connections the ORB uses as data channels. Promotion sends one
// 32-byte header with the segment fd attached over SCM_RIGHTS; from
// then on every byte of the connection travels through the rings and
// the socket serves only as the liveness watchdog (a peer dying closes
// it, which unblocks ring waiters on the survivor). Control
// connections (GIOP first bytes) never promote and behave like any
// stream transport.
//
// The acceptor side must not write before its first successful read —
// it cannot know whether the stream promotes until the first bytes
// arrive. The ORB satisfies this naturally: a server only ever writes
// in response to a request. docs/SHM.md has the full handshake.

package transport

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"encoding/binary"

	"zcorba/internal/shmem"
)

// shmPromoMagic opens the 32-byte promotion header:
//
//	magic[8] | slotSize u32 | slotCount u32 | segBytes u64 | reserved u64
//
// all little-endian (the two ends share one host).
const shmPromoMagic = "ZSHMRNG1"

const shmPromoLen = 32

// SHM is the shared-memory transport. See the package comment above
// for the promotion protocol.
type SHM struct {
	// Dir is where auto-generated socket paths live; empty means the
	// system temp directory.
	Dir string
	// SlotSize/SlotCount select the ring geometry (shmem.Config
	// defaults apply when zero).
	SlotSize  int
	SlotCount int
	// StallTimeout bounds ring-credit waits before a deposit fails
	// with shmem.ErrRingStalled (default one second).
	StallTimeout time.Duration
	Stats        *Stats
	// Faults, if non-nil, is consulted directly by shm connections:
	// ring operations classify as ClassShm, stream bytes as
	// ClassControl. (Wrapping SHM in Faulty would hide the
	// DirectReader fast path, so the injector is embedded instead.)
	Faults *FaultInjector

	mu       sync.Mutex
	nextAuto int
}

// Name implements Transport.
func (t *SHM) Name() string { return "shm" }

func (t *SHM) cfg() shmem.Config {
	return shmem.Config{SlotSize: t.SlotSize, SlotCount: t.SlotCount}.WithDefaults()
}

// trimShm accepts both "shm://path" URIs and bare socket paths.
func trimShm(addr string) string {
	return strings.TrimPrefix(addr, "shm://")
}

// Listen implements Transport. The empty address (or ":0") picks a
// fresh socket path under Dir.
func (t *SHM) Listen(addr string) (Listener, error) {
	path := trimShm(addr)
	if path == "" || path == ":0" {
		dir := t.Dir
		if dir == "" {
			dir = os.TempDir()
		}
		t.mu.Lock()
		t.nextAuto++
		path = filepath.Join(dir, fmt.Sprintf("zshm-%d-%d.sock", os.Getpid(), t.nextAuto))
		t.mu.Unlock()
	}
	ul, err := net.Listen("unix", path)
	if err != nil {
		return nil, fmt.Errorf("transport: shm listen %s: %w", path, err)
	}
	return &shmListener{ul: ul.(*net.UnixListener), path: path, t: t}, nil
}

// Dial implements Transport. Dial events are classless: only ClassAny
// injector rules match, mirroring Faulty.Dial.
func (t *SHM) Dial(addr string) (Conn, error) {
	if t.Faults != nil {
		if r := t.Faults.decide(OpDial, ClassAny); r != nil {
			switch r.Kind {
			case FaultStall, FaultSlow:
				time.Sleep(r.Delay)
			default:
				return nil, fmt.Errorf("transport: shm dial %s: injected %s", addr, r.Kind)
			}
		}
	}
	path := trimShm(addr)
	c, err := net.Dial("unix", path)
	if err != nil {
		return nil, fmt.Errorf("transport: shm dial %s: %w", path, err)
	}
	return &shmConn{t: t, uc: c.(*net.UnixConn), dialer: true}, nil
}

type shmListener struct {
	ul   *net.UnixListener
	path string
	t    *SHM
}

func (l *shmListener) Accept() (Conn, error) {
	c, err := l.ul.AcceptUnix()
	if err != nil {
		return nil, err
	}
	return &shmConn{t: l.t, uc: c}, nil
}

func (l *shmListener) Close() error { return l.ul.Close() }
func (l *shmListener) Addr() string { return "shm://" + l.path }

// ringPair is the promoted state of a connection: the mapped segment
// plus this side's producer and consumer handles.
type ringPair struct {
	seg  *shmem.Segment
	prod *shmem.Producer
	cons *shmem.Consumer
}

// shmConn is one connection: a UDS stream that may promote to ring
// mode. rings flips from nil exactly once (under wmu on the dialer,
// under rmu on the acceptor); loads are lock-free.
type shmConn struct {
	t      *SHM
	uc     *net.UnixConn
	dialer bool

	rings     atomic.Pointer[ringPair]
	dead      atomic.Bool // peer process gone (watchdog)
	noPromote bool        // first write was not ZCDC: plain stream forever

	wmu   sync.Mutex
	gbufs net.Buffers // stream-mode gather scratch

	rmu      sync.Mutex
	probed   bool   // acceptor: promotion probe done
	leftover []byte // acceptor: stream bytes consumed by the probe
	cur      *recState
	curOff   int

	closeOnce sync.Once
	closeErr  error
}

// recState tracks one claimed ring record. The reader holds one
// reference while the record is current; every ReadDirect sub-view
// holds another. Whoever drops the count to zero retires the record.
// Release accounting is atomic-only — a sub-view released from another
// goroutine must not need the connection read lock, or it would
// deadlock against a reader parked in Next.
type recState struct {
	view *shmem.View
	refs atomic.Int32
}

// Release implements Releaser (and zcbuf.Releaser structurally).
func (r *recState) Release() {
	if r.refs.Add(-1) == 0 {
		r.view.Release()
	}
}

// kill simulates (or reacts to) peer death: raise the dead flag and
// tear down the socket so the other process notices too.
func (c *shmConn) kill() {
	c.dead.Store(true)
	_ = c.uc.Close()
}

func (c *shmConn) faultWrite() error {
	if c.t.Faults == nil {
		return nil
	}
	r := c.t.Faults.decide(OpWrite, ClassShm)
	if r == nil {
		return nil
	}
	switch r.Kind {
	case FaultPeerKill, FaultReset:
		c.kill()
		return fmt.Errorf("shmconn: injected %s on deposit: %w", r.Kind, shmem.ErrPeerDead)
	case FaultRingStall:
		return fmt.Errorf("shmconn: injected ring stall: %w", shmem.ErrRingStalled)
	case FaultSlotCorrupt:
		if rp := c.rings.Load(); rp != nil {
			rp.prod.CorruptNext()
		}
	case FaultStall, FaultSlow:
		time.Sleep(r.Delay)
	}
	return nil
}

func (c *shmConn) faultRead() error {
	if c.t.Faults == nil {
		return nil
	}
	r := c.t.Faults.decide(OpRead, ClassShm)
	if r == nil {
		return nil
	}
	switch r.Kind {
	case FaultPeerKill, FaultReset:
		c.kill()
		return fmt.Errorf("shmconn: injected %s on claim: %w", r.Kind, shmem.ErrPeerDead)
	case FaultStall, FaultSlow:
		time.Sleep(r.Delay)
	}
	return nil
}

// watchdog owns the UDS after promotion: nothing travels there any
// more, so a returning Read means the peer closed or died. Raising
// dead unblocks ring waiters on this side.
func (c *shmConn) watchdog() {
	var buf [16]byte
	for {
		if _, err := c.uc.Read(buf[:]); err != nil {
			c.dead.Store(true)
			return
		}
	}
}

// promoteLocked (dialer, wmu held) creates the segment, ships its fd,
// and flips the connection to ring mode. On any failure the
// connection stays a plain stream — correctness is preserved, only
// the zero-copy fast path is lost.
func (c *shmConn) promoteLocked() {
	cfg := c.t.cfg()
	seg, err := shmem.Create(cfg)
	if err != nil {
		c.noPromote = true
		return
	}
	var hdr [shmPromoLen]byte
	copy(hdr[:], shmPromoMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(cfg.SlotSize))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cfg.SlotCount))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cfg.SegmentBytes()))
	if err := shmem.SendFd(c.uc, hdr[:], seg.Fd()); err != nil {
		seg.Close()
		c.noPromote = true
		return
	}
	c.installRings(seg, 0)
}

// installRings wires this side's handles: the dialer produces into
// ring prodIdx (0) and consumes ring 1, the acceptor the mirror.
func (c *shmConn) installRings(seg *shmem.Segment, prodIdx int) {
	prod := seg.Ring(prodIdx).Producer()
	cons := seg.Ring(1 - prodIdx).Consumer()
	prod.Dead = &c.dead
	cons.Dead = &c.dead
	if c.t.StallTimeout > 0 {
		prod.StallTimeout = c.t.StallTimeout
	}
	c.rings.Store(&ringPair{seg: seg, prod: prod, cons: cons})
	go c.watchdog()
}

// probeLocked (acceptor, rmu held) inspects the first bytes of the
// stream: a promotion header flips to ring mode, anything else stays
// a stream with the probed bytes kept as read leftover.
func (c *shmConn) probeLocked() error {
	c.probed = true
	hdr := make([]byte, shmPromoLen)
	fd := -1
	got, err := c.readMsg(hdr[:8], &fd)
	if err != nil {
		c.leftover = hdr[:got]
		if got > 0 {
			return nil // deliver what arrived; the error resurfaces next read
		}
		return err
	}
	got = 8
	if string(hdr[:8]) != shmPromoMagic {
		c.leftover = hdr[:got]
		return nil
	}
	if _, err := c.readMsg(hdr[8:], &fd); err != nil {
		if fd >= 0 {
			syscall.Close(fd)
		}
		return fmt.Errorf("transport: shm promotion header: %w", err)
	}
	if fd < 0 {
		return fmt.Errorf("transport: shm promotion header carried no fd")
	}
	cfg := shmem.Config{
		SlotSize:  int(binary.LittleEndian.Uint32(hdr[8:])),
		SlotCount: int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	segBytes := binary.LittleEndian.Uint64(hdr[16:])
	if err := cfg.Validate(); err != nil || uint64(cfg.SegmentBytes()) != segBytes {
		syscall.Close(fd)
		return fmt.Errorf("transport: shm promotion geometry invalid")
	}
	seg, err := shmem.Open(fd, cfg)
	if err != nil {
		return fmt.Errorf("transport: shm attach segment: %w", err)
	}
	c.installRings(seg, 1)
	return nil
}

// readMsg fills buf from the socket, collecting any SCM_RIGHTS fd that
// rides along into *fdp. Partial fills return the byte count with the
// error.
func (c *shmConn) readMsg(buf []byte, fdp *int) (int, error) {
	oob := make([]byte, syscall.CmsgSpace(4))
	got := 0
	for got < len(buf) {
		n, oobn, _, _, err := c.uc.ReadMsgUnix(buf[got:], oob)
		got += n
		if oobn > 0 {
			if fd, perr := shmem.ParseRightsFd(oob[:oobn]); perr == nil {
				if *fdp >= 0 {
					syscall.Close(*fdp)
				}
				*fdp = fd
			}
		}
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// mapRingErr translates ring errors into stream read semantics.
func mapRingErr(err error) error {
	if err == shmem.ErrProducerDone {
		return io.EOF
	}
	return err
}

// ensureRecordLocked makes cur the next unconsumed ring record,
// blocking in Next if none is published yet. Caller holds rmu.
func (c *shmConn) ensureRecordLocked(rp *ringPair) error {
	if c.cur != nil {
		return nil
	}
	if err := c.faultRead(); err != nil {
		return err
	}
	v, err := rp.cons.Next()
	if err != nil {
		return mapRingErr(err)
	}
	c.cur = &recState{view: v}
	c.cur.refs.Store(1)
	c.curOff = 0
	return nil
}

// finishRecordLocked drops the reader's reference on the current
// record; outstanding ReadDirect sub-views keep it alive.
func (c *shmConn) finishRecordLocked() {
	c.cur.Release()
	c.cur = nil
	c.curOff = 0
}

// ReadScatter fills the first region only: ring records are claimed
// one read at a time.
func (c *shmConn) ReadScatter(regions ...[]byte) (int, error) { return c.Read(regions[0]) }

func (c *shmConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if !c.dialer && !c.probed {
		if err := c.probeLocked(); err != nil {
			return 0, err
		}
	}
	rp := c.rings.Load()
	if rp == nil {
		if len(c.leftover) > 0 {
			n := copy(p, c.leftover)
			c.leftover = c.leftover[n:]
			c.countRead(n)
			return n, nil
		}
		n, err := c.uc.Read(p)
		c.countRead(n)
		return n, err
	}
	if err := c.ensureRecordLocked(rp); err != nil {
		return 0, err
	}
	b := c.cur.view.Bytes()
	n := copy(p, b[c.curOff:])
	c.curOff += n
	if c.curOff == len(b) {
		c.finishRecordLocked()
	}
	c.countRead(n)
	return n, nil
}

// ReadDirect implements DirectReader: a zero-copy view of the next n
// payload bytes. It only succeeds in ring mode when n lies within the
// current record (deposits are published one record per payload, so
// aligned readers always hit the whole-record case).
func (c *shmConn) ReadDirect(n int) ([]byte, Releaser, bool, error) {
	if c.rings.Load() == nil && c.dialer {
		return nil, nil, false, nil // unpromoted: caller uses the copy path
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if !c.dialer && !c.probed {
		if err := c.probeLocked(); err != nil {
			return nil, nil, false, err
		}
	}
	rp := c.rings.Load()
	if rp == nil || len(c.leftover) > 0 {
		return nil, nil, false, nil
	}
	if err := c.ensureRecordLocked(rp); err != nil {
		return nil, nil, false, err
	}
	b := c.cur.view.Bytes()
	if c.curOff+n > len(b) {
		// Record boundary mismatch: let the stream path reassemble.
		return nil, nil, false, nil
	}
	rec := c.cur
	rec.refs.Add(1)
	view := b[c.curOff : c.curOff+n : c.curOff+n]
	c.curOff += n
	if c.curOff == len(b) {
		c.finishRecordLocked()
	}
	c.countRead(n)
	return view, rec, true, nil
}

func (c *shmConn) countRead(n int) {
	if c.t.Stats != nil && n > 0 {
		c.t.Stats.BytesRecv.Add(int64(n))
		c.t.Stats.Reads.Add(1)
	}
}

func (c *shmConn) countWrite(n int64, segs int) {
	if c.t.Stats != nil && n > 0 {
		c.t.Stats.BytesSent.Add(n)
		c.t.Stats.Writes.Add(1)
		if segs > 0 {
			c.t.Stats.GatherSegments.Add(int64(segs))
		}
	}
}

func (c *shmConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	rp := c.rings.Load()
	if rp == nil {
		if c.dialer && !c.noPromote {
			if len(p) >= 4 && string(p[:4]) == "ZCDC" {
				c.promoteLocked()
				rp = c.rings.Load()
			} else {
				c.noPromote = true
			}
		}
		if rp == nil {
			n, err := c.uc.Write(p)
			c.countWrite(int64(n), 0)
			return n, err
		}
	}
	if err := c.faultWrite(); err != nil {
		return 0, err
	}
	n, err := rp.prod.Write(p)
	c.countWrite(int64(n), 0)
	return n, err
}

// WriteGather publishes each segment as its own ring record, so the
// receiver's deposit claims align with record boundaries and stay
// zero-copy. In stream mode it is a writev like the TCP transport.
func (c *shmConn) WriteGather(segs ...[]byte) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	rp := c.rings.Load()
	if rp == nil {
		if c.dialer && !c.noPromote {
			if first := firstNonEmpty(segs); len(first) >= 4 && string(first[:4]) == "ZCDC" {
				c.promoteLocked()
				rp = c.rings.Load()
			} else {
				c.noPromote = true
			}
		}
		if rp == nil {
			n, err := writev(c.uc, &c.gbufs, segs...)
			c.countWrite(n, len(segs))
			return n, err
		}
	}
	if err := c.faultWrite(); err != nil {
		return 0, err
	}
	// Multi-slot lease: the whole train's descriptor slots are credited
	// in one ring reservation and published with one head store, so the
	// peer's scatter loop sees all N records at once.
	bufs := c.gbufs[:0]
	for _, s := range segs {
		if len(s) > 0 {
			bufs = append(bufs, s)
		}
	}
	c.gbufs = bufs
	nsegs := len(bufs)
	total, err := rp.prod.WriteVec(bufs)
	clear(c.gbufs[:nsegs])
	c.gbufs = c.gbufs[:0]
	c.countWrite(total, len(segs))
	return total, err
}

func (c *shmConn) Close() error {
	c.closeOnce.Do(func() {
		if rp := c.rings.Load(); rp != nil {
			// Closing the socket first trips the watchdog (Dead), so a
			// local writer parked in a credit wait unblocks immediately
			// rather than running out its stall timeout.
			c.closeErr = c.uc.Close()
			rp.prod.Close() // peer drains, then sees EOF
			rp.cons.Close() // peer's producer fails fast
			c.rmu.Lock()
			if c.cur != nil {
				c.finishRecordLocked()
			}
			c.rmu.Unlock()
			rp.seg.Close()
			return
		}
		c.closeErr = c.uc.Close()
	})
	return c.closeErr
}

func (c *shmConn) LocalAddr() string  { return "shm://" + c.uc.LocalAddr().String() }
func (c *shmConn) RemoteAddr() string { return "shm://" + c.uc.RemoteAddr().String() }
