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

// TestSHMPromotion: a ZCDC first write promotes the connection; bulk
// bytes then travel the ring in both directions and the stream Read
// path reassembles them transparently.
func TestSHMPromotion(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
	payload := bytes.Repeat([]byte{0xAB}, 100_000)
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble write: %v", err)
	}
	if _, err := cli.WriteGather(payload[:60_000], payload[60_000:]); err != nil {
		t.Fatalf("payload write: %v", err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("server preamble read: %v", err)
	}
	if !bytes.Equal(got, preamble(0)) {
		t.Fatal("preamble corrupted")
	}
	if shmem.LiveSegments() == 0 {
		t.Fatal("connection did not promote to ring mode")
	}
	got = make([]byte, len(payload))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("server payload read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through ring")
	}
	// Reverse direction: results ride the second ring.
	if _, err := srv.Write(payload[:5000]); err != nil {
		t.Fatalf("server write: %v", err)
	}
	got = make([]byte, 5000)
	if _, err := io.ReadFull(cli, got); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(got, payload[:5000]) {
		t.Fatal("reverse payload corrupted")
	}
}

// TestSHMReadDirect: whole-record claims come back as zero-copy views
// into the mapped segment, and releasing them returns ring credit.
func TestSHMReadDirect(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
		t.Fatalf("server preamble: %v", err)
	}
	dr, ok := srv.(DirectReader)
	if !ok {
		t.Fatal("shm conn does not implement DirectReader")
	}
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
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
	// Misaligned claims fall back instead of lying.
	if _, err := cli.Write(make([]byte, 100)); err != nil {
		t.Fatalf("small write: %v", err)
	}
	if _, _, ok, err := dr.ReadDirect(500); ok || err != nil {
		t.Fatalf("oversized claim: ok=%v err=%v, want fallback", ok, err)
	}
	got := make([]byte, 100)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("fallback read: %v", err)
	}
}

// TestSHMCloseReleasesSegment: orderly close retires the mapping on
// both sides (views released), proving no leak in the happy path.
func TestSHMCloseReleasesSegment(t *testing.T) {
	before := shmem.LiveSegments()
	cli, srv := shmPair(t, &SHM{})
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
		t.Fatalf("read: %v", err)
	}
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
// (what a peer crash looks like) unblocks a parked ring reader.
func TestSHMPeerDeadUnblocks(t *testing.T) {
	cli, srv := shmPair(t, &SHM{})
	if _, err := cli.Write(preamble(0)); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
		t.Fatalf("read: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Read(make([]byte, 64))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cli.(*shmConn).kill() // simulated crash: no orderly producer close
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("read returned nil after peer death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ring reader still parked after peer death")
	}
}

// TestSHMFaultInjection drives the three shm fault kinds end to end.
func TestSHMFaultInjection(t *testing.T) {
	t.Run("ring-stall", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassShm, Kind: FaultRingStall, Nth: 2})
		cli, srv := shmPair(t, &SHM{Faults: inj})
		if _, err := cli.Write(preamble(0)); err != nil {
			t.Fatalf("preamble: %v", err)
		}
		if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := cli.Write(make([]byte, 100)); !errors.Is(err, shmem.ErrRingStalled) {
			t.Fatalf("write: %v, want ErrRingStalled", err)
		}
	})
	t.Run("slot-corrupt", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassShm, Kind: FaultSlotCorrupt, Nth: 2})
		cli, srv := shmPair(t, &SHM{Faults: inj})
		if _, err := cli.Write(preamble(0)); err != nil {
			t.Fatalf("preamble: %v", err)
		}
		if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := cli.Write(make([]byte, 100)); err != nil {
			t.Fatalf("corrupted write itself should succeed: %v", err)
		}
		if _, err := srv.Read(make([]byte, 100)); !errors.Is(err, shmem.ErrCorrupt) {
			t.Fatalf("read: %v, want ErrCorrupt", err)
		}
	})
	t.Run("peer-kill", func(t *testing.T) {
		inj := NewFaultInjector(1).Add(Rule{Op: OpWrite, Class: ClassShm, Kind: FaultPeerKill, Nth: 2})
		cli, srv := shmPair(t, &SHM{Faults: inj})
		if _, err := cli.Write(preamble(0)); err != nil {
			t.Fatalf("preamble: %v", err)
		}
		if _, err := io.ReadFull(srv, make([]byte, 12)); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := cli.Write(make([]byte, 100)); !errors.Is(err, shmem.ErrPeerDead) {
			t.Fatalf("write: %v, want ErrPeerDead", err)
		}
	})
}
