//go:build linux

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// pinned is a train of one pinned segment: the single-buffer deposit.
func pinned(p []byte) []Segment { return []Segment{{B: p, Pinned: true}} }

func kzcPair(t *testing.T, tr *KZC) (Conn, Conn) { return connPair(t, tr, "") }

// TestKZCStreamMode: a connection whose first bytes are not the ZC
// preamble never promotes (no header on the wire, SO_ZEROCOPY off) and
// behaves like plain TCP in both directions — the control path.
func TestKZCStreamMode(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{})
	msg := []byte("GIOP control traffic")
	if _, err := cli.Write(msg); err != nil {
		t.Fatalf("client write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("control bytes corrupted")
	}
	if _, err := srv.WriteGather([]byte("re"), []byte("ply")); err != nil {
		t.Fatalf("server gather: %v", err)
	}
	got = make([]byte, 5)
	if _, err := io.ReadFull(cli, got); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(got) != "reply" {
		t.Fatalf("reply = %q", got)
	}
	if cli.(*kzcConn).zcOn.Load() || srv.(*kzcConn).zcOn.Load() {
		t.Fatal("stream-mode conn enabled SO_ZEROCOPY")
	}
	// A by-reference deposit on an unpromoted conn must decline cleanly.
	big := make([]byte, DefaultZeroCopyThreshold)
	if n, err := cli.(*kzcConn).Deposit(pinned(big), func(bool) {}); n != 0 || !errors.Is(err, ErrZeroCopyUnavailable) {
		t.Fatalf("unpromoted Deposit: n=%d err=%v", n, err)
	}
}

// TestKZCPromotionThresholdNegotiation: a ZCDC first write promotes the
// dialer, the acceptor strips the 16-byte header and adopts the
// dialer's threshold, and the app-level byte stream is unchanged.
func TestKZCPromotionThresholdNegotiation(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 12345})
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble write: %v", err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("server preamble read: %v", err)
	}
	if !bytes.Equal(got, preamble(0)) {
		t.Fatal("preamble corrupted (promotion header leaked into the stream?)")
	}
	if th := srv.(*kzcConn).Threshold(); th != 12345 {
		t.Fatalf("acceptor threshold = %d, want 12345", th)
	}
	if !cli.(*kzcConn).zcOn.Load() {
		t.Fatal("dialer did not enable SO_ZEROCOPY on promotion")
	}
	if !srv.(*kzcConn).zcOn.Load() {
		t.Fatal("acceptor did not enable SO_ZEROCOPY on probe")
	}
}

// promoteData walks a pair through the ZCDC promotion handshake (kzc
// and shm promote on the same preamble).
func promoteData(t *testing.T, cli, srv Conn) {
	t.Helper()
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
		t.Fatalf("server preamble: %v", err)
	}
}

// TestKZCDepositCompletion: a promoted single-buffer deposit delivers
// the bytes intact and fires the completion callback exactly once (on
// loopback the kernel reports it as copied, which still counts as
// completed).
func TestKZCDepositCompletion(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096})
	promoteData(t, cli, srv)
	payload := bytes.Repeat([]byte{0xC7}, 64<<10)
	var fired atomic.Int32
	got := make([]byte, len(payload))
	rdone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(srv, got)
		rdone <- err
	}()
	n, err := cli.(*kzcConn).Deposit(pinned(payload), func(copied bool) {
		fired.Add(1)
	})
	if n != int64(len(payload)) || err != nil {
		t.Fatalf("Deposit: n=%d err=%v", n, err)
	}
	if err := <-rdone; err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through MSG_ZEROCOPY")
	}
	// Loopback completions land a few ms after the send; the background
	// reaper must deliver exactly one callback.
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("completion callback never fired")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if n := fired.Load(); n != 1 {
		t.Fatalf("completion fired %d times, want 1", n)
	}
}

// TestKZCDisableFallsBack: Disable models a kernel without SO_ZEROCOPY.
// The conn still promotes and carries plain traffic, but a by-reference
// Deposit reports ErrZeroCopyUnavailable without writing or firing done.
func TestKZCDisableFallsBack(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Disable: true})
	promoteData(t, cli, srv)
	n, err := cli.(*kzcConn).Deposit(pinned(make([]byte, 64<<10)), func(bool) {
		t.Error("done fired on a declined send")
	})
	if n != 0 || !errors.Is(err, ErrZeroCopyUnavailable) {
		t.Fatalf("disabled Deposit: n=%d err=%v", n, err)
	}
	// The plain write path still works end to end.
	if _, err := cli.Write([]byte("still a stream")); err != nil {
		t.Fatalf("plain write: %v", err)
	}
	got := make([]byte, 14)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "still a stream" {
		t.Fatalf("got %q", got)
	}
}

// TestKZCDepositFile: a file region travels disk→wire byte-identical,
// including a sub-range with a non-zero offset, and — no reference
// being held past the call — never fires done.
func TestKZCDepositFile(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{})
	promoteData(t, cli, srv)
	body := make([]byte, 2<<20)
	for i := range body {
		body[i] = byte(i * 13)
	}
	path := filepath.Join(t.TempDir(), "payload.bin")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []struct{ off, n int64 }{
		{0, int64(len(body))},
		{4096, 100_000},
	} {
		got := make([]byte, r.n)
		rdone := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(srv, got)
			rdone <- err
		}()
		sent, err := cli.(*kzcConn).Deposit([]Segment{{File: f, Off: r.off, N: r.n}}, func(bool) {
			t.Error("done fired for a file-only train")
		})
		if err != nil || sent != r.n {
			t.Fatalf("Deposit(file off=%d,n=%d): sent=%d err=%v", r.off, r.n, sent, err)
		}
		if err := <-rdone; err != nil {
			t.Fatalf("server read: %v", err)
		}
		if !bytes.Equal(got, body[r.off:r.off+r.n]) {
			t.Fatalf("sendfile region [%d,%d) corrupted", r.off, r.off+r.n)
		}
	}
}

// TestKZCCopiedLimitDegrades: on loopback every completion is copied,
// so CopiedLimit=1 must degrade the connection to
// ErrZeroCopyUnavailable after the first completion is reaped.
func TestKZCCopiedLimitDegrades(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096, CopiedLimit: 1})
	promoteData(t, cli, srv)
	go io.Copy(io.Discard, srv)
	payload := make([]byte, 64<<10)
	kc := cli.(*kzcConn)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := kc.Deposit(pinned(payload), func(bool) {})
		if n == 0 && err != nil {
			if !errors.Is(err, ErrZeroCopyUnavailable) {
				t.Fatalf("degraded error = %v, want ErrZeroCopyUnavailable", err)
			}
			return // degraded, as required
		}
		if err != nil {
			t.Fatalf("Deposit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never degraded despite copied completions")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKZCFaultInjection drives the kernel-ZC fault kinds end to end.
func TestKZCFaultInjection(t *testing.T) {
	t.Run("enobufs", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassKzc, Kind: FaultENOBUFS, Nth: 1})
		cli, srv := kzcPair(t, &KZC{Threshold: 4096, Faults: inj})
		promoteData(t, cli, srv)
		payload := bytes.Repeat([]byte{0x11}, 32<<10)
		var fired atomic.Int32
		got := make([]byte, len(payload))
		rdone := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(srv, got)
			rdone <- err
		}()
		n, err := cli.(*kzcConn).Deposit(pinned(payload), func(copied bool) {
			if !copied {
				t.Error("ENOBUFS degradation must complete as copied")
			}
			fired.Add(1)
		})
		if n != int64(len(payload)) || err != nil {
			t.Fatalf("ENOBUFS send: n=%d err=%v", n, err)
		}
		if fired.Load() != 1 {
			t.Fatal("ENOBUFS degradation must complete immediately")
		}
		if err := <-rdone; err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted on the ENOBUFS plain-write path")
		}
	})
	t.Run("drop-completion", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassKzc, Kind: FaultDropCompletion, Nth: 1})
		cli, srv := kzcPair(t, &KZC{Threshold: 4096, Faults: inj})
		promoteData(t, cli, srv)
		payload := bytes.Repeat([]byte{0x22}, 32<<10)
		var fired atomic.Int32
		got := make([]byte, len(payload))
		rdone := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(srv, got)
			rdone <- err
		}()
		n, err := cli.(*kzcConn).Deposit(pinned(payload), func(bool) { fired.Add(1) })
		if n != int64(len(payload)) || err != nil {
			t.Fatalf("dropped-completion send: n=%d err=%v", n, err)
		}
		if err := <-rdone; err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted")
		}
		// The bytes arrived but the completion must never: reclaiming the
		// buffer is the caller's lease sweeper's job.
		time.Sleep(50 * time.Millisecond)
		if fired.Load() != 0 {
			t.Fatal("dropped completion fired anyway")
		}
	})
	t.Run("short-splice", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassKzc, Kind: FaultShortSplice, Nth: 1})
		cli, srv := kzcPair(t, &KZC{Faults: inj})
		promoteData(t, cli, srv)
		go io.Copy(io.Discard, srv)
		body := make([]byte, 1<<20)
		path := filepath.Join(t.TempDir(), "f.bin")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sent, err := cli.(*kzcConn).Deposit([]Segment{{File: f, N: int64(len(body))}}, nil)
		if err == nil || !strings.Contains(err.Error(), "short") {
			t.Fatalf("short splice: err=%v", err)
		}
		if sent != int64(len(body))/2 {
			t.Fatalf("short splice sent %d, want %d", sent, len(body)/2)
		}
	})
	t.Run("reset", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassKzc, Kind: FaultReset, Nth: 1})
		cli, srv := kzcPair(t, &KZC{Threshold: 4096, Faults: inj})
		promoteData(t, cli, srv)
		var fired atomic.Int32
		_, err := cli.(*kzcConn).Deposit(pinned(make([]byte, 32<<10)), func(bool) { fired.Add(1) })
		if err == nil || errors.Is(err, ErrZeroCopyUnavailable) {
			t.Fatalf("reset send: err=%v, want a broken-stream error", err)
		}
		if fired.Load() != 1 {
			t.Fatal("reset must still complete the callback (stream torn down)")
		}
	})
}

// TestKZCSendmsgENOBUFSFinishesPlain: when the kernel itself refuses to
// pin (sendmsg returns ENOBUFS, here forced on the first attempt), the
// unsent tail of the run goes out as a plain write, nothing is lost or
// reordered, and the train completes at once as copied.
func TestKZCSendmsgENOBUFSFinishesPlain(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096})
	promoteData(t, cli, srv)
	kc := cli.(*kzcConn)
	sendmsg := kc.sendFn
	kc.sendFn = func(fd uintptr) bool {
		kc.sendFn = sendmsg
		kc.sendN, kc.sendErr = 0, syscall.ENOBUFS
		return true
	}
	train := []Segment{
		{B: bytes.Repeat([]byte{0x41}, 16<<10), Pinned: true},
		{B: bytes.Repeat([]byte{0x42}, 8<<10), Pinned: true},
		{B: []byte("tail")},
	}
	want := trainBytes(t, train)
	got := make([]byte, len(want))
	rdone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(srv, got)
		rdone <- err
	}()
	var fired, copied atomic.Int32
	n, err := kc.Deposit(train, func(c bool) {
		fired.Add(1)
		if c {
			copied.Add(1)
		}
	})
	if n != int64(len(want)) || err != nil {
		t.Fatalf("Deposit: n=%d err=%v", n, err)
	}
	if fired.Load() != 1 || copied.Load() != 1 {
		t.Fatalf("done fired=%d copied=%d, want one immediate copied completion",
			fired.Load(), copied.Load())
	}
	if err := <-rdone; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("train corrupted on the ENOBUFS plain-write tail")
	}
	if n := kc.outstanding.Load(); n != 0 {
		t.Fatalf("outstanding = %d after a train that consumed no sequence", n)
	}
}

// TestKZCSchemeDispatch: FromAddr resolves kzc:// URIs to the KZC
// transport, and Listen/Dial round-trip the scheme-qualified form.
func TestKZCSchemeDispatch(t *testing.T) {
	tr, rest, err := FromAddr("kzc://127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("FromAddr: %v", err)
	}
	if tr.Name() != "kzc" || rest != "127.0.0.1:0" {
		t.Fatalf("FromAddr = %s,%q", tr.Name(), rest)
	}
	l, err := tr.Listen(rest)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	if !strings.HasPrefix(l.Addr(), "kzc://") {
		t.Fatalf("listener addr %q not scheme-qualified", l.Addr())
	}
	go l.Accept()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial scheme-qualified addr: %v", err)
	}
	c.Close()
}

// TestKZCMergedCompletionSpanningOpenWrite regression-tests the
// completion/registration race: the kernel merges adjacent completion
// ranges, so the reaper can see a single range covering a finished
// write's sequences AND sequences of a write whose send loop is still
// running. The open write's portion must be absorbed (not dropped) and
// its callback held until the loop closes the entry.
func TestKZCMergedCompletionSpanningOpenWrite(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096})
	promoteData(t, cli, srv)
	c := cli.(*kzcConn)
	fireAll := func(fired []*kzcPending) {
		for _, p := range fired {
			cp, d := p.copied, p.done
			c.recyclePending(p)
			c.outstanding.Add(-1)
			if d != nil {
				d(cp)
			}
		}
	}
	var aFired, bFired atomic.Int32
	// Write A: two sequences (0,1), send loop finished.
	a := c.reservePending(func(bool) { aFired.Add(1) })
	c.reserveSeq(a)
	c.reserveSeq(a)
	c.closePending(a, false)
	// Write B: one sequence (2) so far, send loop still running.
	b := c.reservePending(func(bool) { bFired.Add(1) })
	c.reserveSeq(b)
	// The kernel reports one merged range [0,2] spanning both writes.
	c.cmu.Lock()
	fired := c.completeRangeLocked(0, 2, true)
	c.cmu.Unlock()
	fireAll(fired)
	if n := aFired.Load(); n != 1 {
		t.Fatalf("finished write fired %d times, want 1", n)
	}
	if bFired.Load() != 0 {
		t.Fatal("open write fired before its send loop closed")
	}
	// B consumes one more sequence; its completion arrives while the
	// loop is still open, then the loop ends.
	c.reserveSeq(b)
	c.cmu.Lock()
	fired = c.completeRangeLocked(3, 3, true)
	c.cmu.Unlock()
	if len(fired) != 0 {
		t.Fatal("open entry returned as complete")
	}
	c.closePending(b, false)
	if n := bFired.Load(); n != 1 {
		t.Fatalf("open write fired %d times after close, want 1", n)
	}
	if n := c.outstanding.Load(); n != 0 {
		t.Fatalf("outstanding = %d after all completions, want 0", n)
	}
	c.cmu.Lock()
	npend := len(c.pend)
	c.cmu.Unlock()
	if npend != 0 {
		t.Fatalf("%d pending entries leaked", npend)
	}
}

// TestKZCUnreserveSeqRollsBack: a sendmsg that fails outright consumes
// no kernel sequence; the mirror counter and the pending entry must
// roll back so the next send reuses the sequence.
func TestKZCUnreserveSeqRollsBack(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096})
	promoteData(t, cli, srv)
	c := cli.(*kzcConn)
	var fired atomic.Int32
	p := c.reservePending(func(bool) { fired.Add(1) })
	c.reserveSeq(p)
	c.unreserveSeq(p)
	c.cmu.Lock()
	seq := c.sendSeq
	c.cmu.Unlock()
	if seq != 0 {
		t.Fatalf("sendSeq = %d after rollback, want 0", seq)
	}
	// A completion range containing sequence 0 must not match the
	// rolled-back (now sequence-less) entry.
	c.cmu.Lock()
	fired2 := c.completeRangeLocked(0, 0, false)
	c.cmu.Unlock()
	if len(fired2) != 0 {
		t.Fatal("sequence-less entry matched a completion range")
	}
	c.closePending(p, true)
	if n := fired.Load(); n != 1 {
		t.Fatalf("done fired %d times, want 1 (immediately at close)", n)
	}
	if n := c.outstanding.Load(); n != 0 {
		t.Fatalf("outstanding = %d, want 0", n)
	}
}

// TestKZCThresholdClampsHostileValue: a peer-supplied threshold that
// would wrap negative through the int32 store (forcing every deposit
// onto the MSG_ZEROCOPY path) is ignored in favor of the local default.
func TestKZCThresholdClampsHostileValue(t *testing.T) {
	tr := &KZC{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	var (
		srv  Conn
		aerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, aerr = l.Accept()
	}()
	nc, err := net.Dial("tcp", trimKzc(l.Addr()))
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer nc.Close()
	wg.Wait()
	if aerr != nil {
		t.Fatalf("accept: %v", aerr)
	}
	defer srv.Close()
	var hdr [kzcPromoLen]byte
	copy(hdr[:], kzcPromoMagic)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<31) // wraps negative as int32
	if _, err := nc.Write(append(hdr[:], "payload"...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 7)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if th := srv.(*kzcConn).Threshold(); th != DefaultZeroCopyThreshold {
		t.Fatalf("threshold = %d after hostile header, want default %d",
			th, DefaultZeroCopyThreshold)
	}
}

// TestKZCCloseAbortsWhileCompletionsOutstanding: with zero-copy
// completions outstanding the kernel's send queue may still reference
// caller pages, so Close must abort the connection (RST, purging the
// queue) rather than close gracefully — the peer sees a reset, not
// EOF. With nothing outstanding the close stays graceful.
func TestKZCCloseAbortsWhileCompletionsOutstanding(t *testing.T) {
	t.Run("outstanding-rst", func(t *testing.T) {
		cli, srv := kzcPair(t, &KZC{Threshold: 4096})
		promoteData(t, cli, srv)
		c := cli.(*kzcConn)
		p := c.reservePending(func(bool) {})
		c.reserveSeq(p) // a completion that will never settle
		if err := cli.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		_, err := io.ReadFull(srv, make([]byte, 1))
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("peer observed graceful close (err=%v), want connection reset", err)
		}
	})
	t.Run("idle-graceful", func(t *testing.T) {
		cli, srv := kzcPair(t, &KZC{Threshold: 4096})
		promoteData(t, cli, srv)
		if err := cli.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := io.ReadFull(srv, make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("peer err = %v, want io.EOF (graceful close)", err)
		}
	})
}

// TestKZCReaperWakesAfterIdle: once every completion settles the reaper
// parks (no wakeups on an idle connection); a later write must wake it
// and still get its completion callback.
func TestKZCReaperWakesAfterIdle(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096})
	promoteData(t, cli, srv)
	go io.Copy(io.Discard, srv)
	kc := cli.(*kzcConn)
	payload := make([]byte, 64<<10)
	for round := 0; round < 2; round++ {
		var fired atomic.Int32
		n, err := kc.Deposit(pinned(payload), func(bool) { fired.Add(1) })
		if n != int64(len(payload)) || err != nil {
			t.Fatalf("round %d Deposit: n=%d err=%v", round, n, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for fired.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d completion never fired", round)
			}
			time.Sleep(time.Millisecond)
		}
		// Let the reaper drain and park before the next round.
		for kc.outstanding.Load() != 0 && !time.Now().After(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestKZCDepositGather: a train of pinned segments — two above the
// threshold around one below it and an empty one — arrives
// byte-identical and in order, and the single train completion fires
// exactly once.
func TestKZCDepositGather(t *testing.T) {
	cli, srv := kzcPair(t, &KZC{Threshold: 4096})
	promoteData(t, cli, srv)
	segs := [][]byte{
		bytes.Repeat([]byte{0x11}, 64<<10),
		bytes.Repeat([]byte{0x22}, 7),
		nil,
		bytes.Repeat([]byte{0x33}, 128<<10),
	}
	var want []byte
	for _, s := range segs {
		want = append(want, s...)
	}
	var fired atomic.Int32
	got := make([]byte, len(want))
	rdone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(srv, got)
		rdone <- err
	}()
	dp, okIface := Conn(cli).(Depositor)
	if !okIface {
		t.Fatal("kzc conn does not implement Depositor")
	}
	train := make([]Segment, len(segs))
	for i, s := range segs {
		train[i] = Segment{B: s, Pinned: true}
	}
	n, err := dp.Deposit(train, func(copied bool) { fired.Add(1) })
	if n != int64(len(want)) || err != nil {
		t.Fatalf("Deposit: n=%d err=%v", n, err)
	}
	if err := <-rdone; err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("train corrupted through the mixed zero-copy/plain walk")
	}
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("train completion never fired")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if n := fired.Load(); n != 1 {
		t.Fatalf("train completion fired %d times, want 1", n)
	}
}
