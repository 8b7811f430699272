//go:build linux

package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"zcorba/internal/shmem"
)

func shmPair(t *testing.T, tr *SHM) (Conn, Conn) { return connPair(t, tr, "") }

func preamble(extra int) []byte {
	b := append([]byte("ZCDC"), make([]byte, 8+extra)...)
	for i := 4; i < len(b); i++ {
		b[i] = byte(i)
	}
	return b
}

// TestSHMStreamMode: a connection whose first bytes are not the ZC
// preamble stays an ordinary bidirectional stream (the control path).
func TestSHMStreamMode(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
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
	// And the reply direction.
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
	if shmem.LiveSegments() != 0 {
		t.Fatal("stream-mode conn mapped a segment")
	}
}

// promote walks a pair through the ZCDC promotion: the preamble, the
// dialer's first write, installs the ring pair and itself travels the
// stream.
func promote(t *testing.T, cli, srv Conn) {
	t.Helper()
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble write: %v", err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("server preamble read: %v", err)
	}
	if !bytes.Equal(got, preamble(0)) {
		t.Fatal("preamble corrupted")
	}
}

// claim takes the next ring record of n bytes on c, copies it out and
// releases it.
func claim(t *testing.T, c Conn, n int) []byte {
	t.Helper()
	view, rel, ok, err := c.(DirectReader).ReadDirect(n)
	if err != nil || !ok {
		t.Fatalf("ReadDirect(%d): ok=%v err=%v", n, ok, err)
	}
	b := append([]byte(nil), view...)
	rel.Release()
	return b
}

// TestSHMPromotion: a ZCDC first write promotes the connection. Gather
// writes then publish one ring record per segment in both directions,
// while Write and Read stay on the stream, as does a Stream view's
// gather write.
func TestSHMPromotion(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
	promote(t, cli, srv)
	if shmem.LiveSegments() == 0 {
		t.Fatal("connection did not promote to ring mode")
	}
	payload := bytes.Repeat([]byte{0xAB}, 100_000)
	if _, err := cli.WriteGather(payload[:60_000], payload[60_000:]); err != nil {
		t.Fatalf("payload write: %v", err)
	}
	if !bytes.Equal(append(claim(t, srv, 60_000), claim(t, srv, 40_000)...), payload) {
		t.Fatal("payload corrupted through ring")
	}
	// Reverse direction: results ride the second ring.
	if _, err := srv.WriteGather(payload[:5000]); err != nil {
		t.Fatalf("server deposit: %v", err)
	}
	if !bytes.Equal(claim(t, cli, 5000), payload[:5000]) {
		t.Fatal("reverse payload corrupted")
	}
	// The stream runs beside the rings, both ways.
	if _, err := srv.Write([]byte("ack")); err != nil {
		t.Fatalf("server stream write: %v", err)
	}
	if _, err := cli.(RingConn).Stream().WriteGather([]byte("GI"), []byte("OP")); err != nil {
		t.Fatalf("client stream gather: %v", err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(srv, got); err != nil || string(got) != "GIOP" {
		t.Fatalf("server stream read %q: %v", got, err)
	}
	if _, err := io.ReadFull(cli, got[:3]); err != nil || string(got[:3]) != "ack" {
		t.Fatalf("client stream read %q: %v", got[:3], err)
	}
}

// TestSHMExplicitPromotion: Promote installs the ring pair without a
// stream byte, so the acceptor's first read returns the first stream
// bytes. Promote after a stream write fails, and a connection without a
// ring answers ReadDirect with ok=false.
func TestSHMExplicitPromotion(t *testing.T) {
	tr := &SHM{} // one transport, so the two listeners get distinct paths
	cli, srv := shmPair(t, tr)
	rc := cli.(RingConn)
	if err := rc.Promote(); err != nil || !rc.HasRing() {
		t.Fatalf("Promote: %v, HasRing=%v", err, rc.HasRing())
	}
	if _, err := rc.Stream().WriteGather([]byte("GIOP")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(srv, got); err != nil || string(got) != "GIOP" {
		t.Fatalf("server read %q: %v", got, err)
	}
	if !srv.(RingConn).HasRing() {
		t.Fatal("acceptor did not install the ring pair")
	}

	plain, peer := shmPair(t, tr)
	if _, err := plain.Write([]byte("GIOP")); err != nil {
		t.Fatal(err)
	}
	if err := plain.(RingConn).Promote(); err == nil {
		t.Fatal("Promote after a stream write succeeded")
	}
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := peer.(DirectReader).ReadDirect(4); ok || err != nil {
		t.Fatalf("ReadDirect without a ring: ok=%v err=%v, want ok=false", ok, err)
	}
}

// TestSHMReadDirect: whole-record claims come back as zero-copy views
// into the mapped segment, releasing them returns ring credit, and a
// record of another size than announced is refused, not split.
func TestSHMReadDirect(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
	promote(t, cli, srv)
	dr := srv.(DirectReader)
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	for i := 0; i < 3; i++ { // three rounds: the credit comes back
		done := make(chan error, 1)
		go func() {
			_, err := cli.WriteGather(payload)
			done <- err
		}()
		view, rel, ok, err := dr.ReadDirect(len(payload))
		if err != nil || !ok {
			t.Fatalf("ReadDirect: ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(view, payload) {
			t.Fatal("direct view corrupted")
		}
		rel.Release()
		if err := <-done; err != nil {
			t.Fatalf("deposit write: %v", err)
		}
	}
	if _, err := cli.WriteGather(make([]byte, 100)); err != nil {
		t.Fatalf("small deposit: %v", err)
	}
	if _, _, ok, err := dr.ReadDirect(500); ok || !errors.Is(err, errRecordSize) {
		t.Fatalf("mis-sized claim: ok=%v err=%v, want errRecordSize", ok, err)
	}
}

// TestSHMCloseReleasesSegment: orderly close retires the mapping on
// both sides (views released), proving no leak in the happy path.
func TestSHMCloseReleasesSegment(t *testing.T) {
	before := shmem.LiveSegments()
	cli, srv := shmPair(t, &SHM{})
	promote(t, cli, srv)
	cli.Close()
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for shmem.LiveSegments() != before {
		if time.Now().After(deadline) {
			t.Fatalf("segments leaked: %d live, want %d", shmem.LiveSegments(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSHMPeerDeadUnblocks: killing the socket under a promoted conn
// (what a peer crash looks like) unblocks a parked ring claim, though
// nothing reads the stream it rides beside.
func TestSHMPeerDeadUnblocks(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
	promote(t, cli, srv)
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := srv.(DirectReader).ReadDirect(64)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cli.(*shmConn).kill() // simulated crash: no orderly producer close
	select {
	case err := <-errc:
		if !errors.Is(err, shmem.ErrPeerDead) {
			t.Fatalf("claim returned %v after peer death, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ring claim still parked after peer death")
	}
}

// TestSHMFaultInjection drives the three shm fault kinds end to end.
func TestSHMFaultInjection(t *testing.T) {
	t.Run("ring-stall", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassShm, Kind: FaultRingStall, Nth: 1})
		cli, srv := shmPair(t, &SHM{Faults: inj})
		promote(t, cli, srv)
		if _, err := cli.WriteGather(make([]byte, 100)); !errors.Is(err, shmem.ErrRingStalled) {
			t.Fatalf("write: %v, want ErrRingStalled", err)
		}
	})
	t.Run("slot-corrupt", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassShm, Kind: FaultSlotCorrupt, Nth: 1})
		cli, srv := shmPair(t, &SHM{Faults: inj})
		promote(t, cli, srv)
		if _, err := cli.WriteGather(make([]byte, 100)); err != nil {
			t.Fatalf("corrupted write itself should succeed: %v", err)
		}
		if _, _, _, err := srv.(DirectReader).ReadDirect(100); !errors.Is(err, shmem.ErrCorrupt) {
			t.Fatalf("read: %v, want ErrCorrupt", err)
		}
	})
	t.Run("peer-kill", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassShm, Kind: FaultPeerKill, Nth: 1})
		cli, srv := shmPair(t, &SHM{Faults: inj})
		promote(t, cli, srv)
		if _, err := cli.WriteGather(make([]byte, 100)); !errors.Is(err, shmem.ErrPeerDead) {
			t.Fatalf("write: %v, want ErrPeerDead", err)
		}
	})
}
