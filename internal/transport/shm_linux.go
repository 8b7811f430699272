//go:build linux

// The shared-memory transport: a connection is a Unix domain socket
// stream with, once promoted, a memfd-backed ring pair beside it,
// mapped by both processes (internal/shmem). The DIALER promotes the
// connection — by Promote, or by a first write that begins with the ZC
// preamble "ZCDC" — ahead of any stream byte: it sends one 32-byte
// header with the segment fd attached over SCM_RIGHTS, and the acceptor
// installs the rings when its first read finds that header.
//
// The socket stays the connection's byte stream: Read, ReadScatter and
// Write always use it, and so does WriteGather until the rings are
// installed. From then on WriteGather publishes each segment as one
// ring record and ReadDirect claims the next record in place, so
// control messages travel the socket and deposits the ring (Stream is
// the view whose WriteGather stays on the socket). The stream's reader
// is also the liveness watchdog: a read that fails marks the peer dead,
// which unblocks ring waiters on this side.
//
// The acceptor side must not write before its first successful read —
// it cannot know whether the stream promotes until the first bytes
// arrive. The ORB satisfies this naturally: a server only ever writes
// in response to a request. docs/SHM.md has the full handshake.

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

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
	// Faults, if non-nil, is consulted directly by shm connections for
	// their ring operations, classified ClassShm. (Wrapping SHM in
	// Faulty would hide the ring, so the injector is embedded instead.)
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
	return newShmConn(t, c.(*net.UnixConn), true), nil
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
	return newShmConn(l.t, c, false), nil
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

// shmConn is one connection: a UDS stream that may carry a ring pair.
// rings flips from nil at most once to a pair (under wmu on the
// dialer, on the reader on the acceptor) and at most once back to nil
// (CloseRing); loads are lock-free.
type shmConn struct {
	t      *SHM
	uc     *net.UnixConn
	raw    syscall.RawConn
	rv     *scatterReader
	dialer bool

	rings atomic.Pointer[ringPair]
	dead  atomic.Bool // peer process gone (the stream's reader saw it)

	wmu       sync.Mutex
	gbufs     gather // gather scratch, stream or ring
	noPromote bool   // dialer: stream bytes went first, never promote

	// The reader's state: the acceptor's promotion probe and the stream
	// bytes it consumed. cmu is held across a ring claim, so CloseRing
	// never unmaps the segment under a reader parked in it.
	probed   bool
	leftover []byte
	cmu      sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

func newShmConn(t *SHM, uc *net.UnixConn, dialer bool) *shmConn {
	c := &shmConn{t: t, uc: uc, dialer: dialer, probed: dialer}
	// A *net.UnixConn always has its raw connection.
	c.raw, _ = uc.SyscallConn()
	c.rv = newScatterReader(c.raw)
	return c
}

// alive peeks at the socket without consuming a byte: a peer that
// closed or died leaves end of stream or an error there. It is the
// ring waiters' check while nobody reads the stream (a reader parked in
// a claim is that reader), consulted only once a wait sleeps.
func (c *shmConn) alive() bool {
	if c.dead.Load() {
		return false
	}
	ok := true
	var b [1]byte
	_ = c.raw.Control(func(fd uintptr) {
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		ok = n > 0 || err == syscall.EAGAIN || err == syscall.EINTR
	})
	if !ok {
		c.dead.Store(true)
	}
	return ok
}

// errRecordSize is ReadDirect's answer when the next ring record is not
// the size the caller announced: a peer that broke the one record per
// deposit rule. The record is consumed.
var errRecordSize = errors.New("transport: shm record size differs from the announced deposit")

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

// Promote implements RingConn: the dialer creates the segment, ships
// its fd and installs its ring handles. It must come before any stream
// byte; on a connection already promoted it does nothing.
func (c *shmConn) Promote() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.promoteLocked()
}

// promoteLocked is Promote with wmu held. On failure the connection
// stays a plain stream.
func (c *shmConn) promoteLocked() error {
	switch {
	case c.rings.Load() != nil:
		return nil
	case !c.dialer || c.noPromote:
		return errors.New("transport: shm promotion must be the dialer's first write")
	}
	c.noPromote = true
	cfg := c.t.cfg()
	seg, err := shmem.Create(cfg)
	if err != nil {
		return err
	}
	var hdr [shmPromoLen]byte
	copy(hdr[:], shmPromoMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(cfg.SlotSize))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cfg.SlotCount))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cfg.SegmentBytes()))
	if err := shmem.SendFd(c.uc, hdr[:], seg.Fd()); err != nil {
		seg.Close()
		return err
	}
	c.installRings(seg, 0)
	return nil
}

// installRings wires this side's handles: the dialer produces into
// ring prodIdx (0) and consumes ring 1, the acceptor the mirror.
func (c *shmConn) installRings(seg *shmem.Segment, prodIdx int) {
	prod := seg.Ring(prodIdx).Producer()
	cons := seg.Ring(1 - prodIdx).Consumer()
	prod.Dead, prod.Alive = &c.dead, c.alive
	cons.Dead, cons.Alive = &c.dead, c.alive
	if c.t.StallTimeout > 0 {
		prod.StallTimeout = c.t.StallTimeout
	}
	c.rings.Store(&ringPair{seg: seg, prod: prod, cons: cons})
}

// probe (acceptor, first read) inspects the first bytes of the stream:
// a promotion header installs the rings, anything else is kept as
// leftover for the reads that follow.
func (c *shmConn) probe() error {
	c.probed = true
	hdr := make([]byte, shmPromoLen)
	fd := -1
	got, err := c.readMsg(hdr[:8], &fd, shmPromoMagic)
	if err != nil || string(hdr[:8]) != shmPromoMagic {
		c.leftover = hdr[:got]
		if got > 0 {
			return nil // deliver what arrived; an error resurfaces next read
		}
		return err
	}
	if _, err := c.readMsg(hdr[8:], &fd, ""); err != nil {
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
// rides along into *fdp. It stops early once the bytes read differ
// from a non-empty want, so a short stream message that is not a
// promotion header is not held back. Partial fills return the byte
// count with the error.
func (c *shmConn) readMsg(buf []byte, fdp *int, want string) (int, error) {
	oob := make([]byte, syscall.CmsgSpace(4))
	got := 0
	for got < len(buf) && (want == "" || string(buf[:got]) == want[:got]) {
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

func (c *shmConn) Read(p []byte) (int, error) { return c.ReadScatter(p) }

// ReadScatter reads the stream, one readv into the regions; the
// acceptor's first read probes for the promotion header. A failed read
// marks the peer dead, so ring waiters on this side give up.
func (c *shmConn) ReadScatter(regions ...[]byte) (int, error) {
	if !c.probed {
		if err := c.probe(); err != nil {
			c.dead.Store(true)
			return 0, err
		}
	}
	var n int
	var err error
	switch {
	case len(c.leftover) > 0:
		for _, r := range regions {
			k := copy(r, c.leftover)
			c.leftover = c.leftover[k:]
			n += k
		}
	case len(regions) == 1:
		n, err = c.uc.Read(regions[0])
	default:
		n, err = c.rv.read(regions)
	}
	if err != nil {
		c.dead.Store(true)
	}
	c.countRead(n)
	return n, err
}

// ReadDirect implements DirectReader: it claims the next ring record,
// which must be exactly n bytes, as a view into the mapped segment.
// The record's ring view is the release token, so a claim allocates
// nothing. ok=false means the connection carries no ring, so the bytes
// travel the stream.
func (c *shmConn) ReadDirect(n int) ([]byte, Releaser, bool, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	rp := c.rings.Load()
	if rp == nil {
		return nil, nil, false, nil
	}
	if err := c.faultRead(); err != nil {
		return nil, nil, false, err
	}
	v, err := rp.cons.Next()
	if err != nil {
		if err == shmem.ErrProducerDone {
			err = fmt.Errorf("transport: shm ring retired by the peer: %w", err)
		}
		return nil, nil, false, err
	}
	b := v.Bytes()
	if len(b) != n {
		v.Release()
		return nil, nil, false, errRecordSize
	}
	c.countRead(n)
	return b, v, true, nil
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

// preambleLocked promotes a dialer whose first stream write is the ZC
// preamble (wmu held). The preamble itself still travels the stream.
func (c *shmConn) preambleLocked(first []byte) {
	if !c.dialer || c.noPromote {
		return
	}
	if len(first) >= 4 && string(first[:4]) == "ZCDC" {
		_ = c.promoteLocked()
	}
	c.noPromote = true
}

// Write writes p to the stream.
func (c *shmConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.preambleLocked(p)
	n, err := c.uc.Write(p)
	c.countWrite(int64(n), 0)
	return n, err
}

// WriteGather publishes each segment as its own ring record once the
// rings are installed, so the receiver's claims align with record
// boundaries and stay zero-copy; until then it is a writev on the
// stream.
func (c *shmConn) WriteGather(segs ...[]byte) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	rp := c.rings.Load()
	if rp == nil {
		return c.writeStreamLocked(segs)
	}
	if err := c.faultWrite(); err != nil {
		return 0, err
	}
	// Multi-slot lease: the whole train's descriptor slots are credited
	// in one ring reservation and published with one head store, so the
	// peer's scatter loop sees all N records at once.
	bufs := c.gbufs.bufs[:0]
	for _, s := range segs {
		if len(s) > 0 {
			bufs = append(bufs, s)
		}
	}
	total, err := rp.prod.WriteVec(bufs)
	clear(bufs)
	c.gbufs.bufs = bufs[:0]
	c.countWrite(total, len(segs))
	return total, err
}

// writeStreamLocked is the stream's writev (wmu held).
func (c *shmConn) writeStreamLocked(segs [][]byte) (int64, error) {
	c.preambleLocked(firstNonEmpty(segs))
	n, err := writev(c.uc, &c.gbufs, segs...)
	c.countWrite(n, len(segs))
	return n, err
}

// HasRing implements RingConn.
func (c *shmConn) HasRing() bool { return c.rings.Load() != nil }

// Stream implements RingConn.
func (c *shmConn) Stream() Conn { return shmStream{c} }

// shmStream is a connection seen as its byte stream alone.
type shmStream struct{ *shmConn }

// WriteGather writes the segments to the stream, ring or no ring.
func (s shmStream) WriteGather(segs ...[]byte) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.writeStreamLocked(segs)
}

// CloseRing implements RingConn: the ring pair is retired on this side
// and the peer's ring operations fail fast, while the stream stays up.
// The segment is unmapped once the last claimed view is released.
func (c *shmConn) CloseRing() {
	rp := c.rings.Swap(nil)
	if rp == nil {
		return
	}
	rp.prod.Close() // peer drains, then sees the end of the ring
	rp.cons.Close() // peer's producer fails fast; a parked claim returns
	// Neither side of this process may touch the mapping past here: the
	// producer's lock and cmu wait out a deposit or a claim in progress.
	c.cmu.Lock()
	c.cmu.Unlock()
	rp.seg.Close()
}

func (c *shmConn) Close() error {
	c.closeOnce.Do(func() {
		// Raising dead first unblocks a local writer parked in a credit
		// wait at once rather than after its stall timeout.
		c.dead.Store(true)
		c.closeErr = c.uc.Close()
		c.CloseRing()
	})
	return c.closeErr
}

func (c *shmConn) LocalAddr() string  { return "shm://" + c.uc.LocalAddr().String() }
func (c *shmConn) RemoteAddr() string { return "shm://" + c.uc.RemoteAddr().String() }
