package transport

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// connPair returns the two ends of one fresh connection over tr.
func connPair(t *testing.T, tr Transport, addr string) (cli, srv Conn) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("%s listen: %v", tr.Name(), err)
	}
	t.Cleanup(func() { l.Close() })
	var (
		aerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, aerr = l.Accept()
	}()
	cli, err = tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("%s dial: %v", tr.Name(), err)
	}
	wg.Wait()
	if aerr != nil {
		t.Fatalf("%s accept: %v", tr.Name(), aerr)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// exerciseTransport runs a generic send/receive conversation over t.
func exerciseTransport(t *testing.T, tr Transport, addr string) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	payload := bytes.Repeat([]byte{0xAB}, 100000)
	header := []byte("HDR0")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		got := make([]byte, len(header)+len(payload))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Errorf("ReadFull: %v", err)
			return
		}
		if !bytes.Equal(got[:4], header) || !bytes.Equal(got[4:], payload) {
			t.Error("payload corrupted in transit")
		}
		if _, err := c.Write([]byte("ACK!")); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()

	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	n, err := c.WriteGather(header, nil, payload) // nil segment must be skipped
	if err != nil {
		t.Fatalf("WriteGather: %v", err)
	}
	if n != int64(len(header)+len(payload)) {
		t.Fatalf("WriteGather wrote %d", n)
	}
	ack := make([]byte, 4)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatalf("read ack: %v", err)
	}
	if string(ack) != "ACK!" {
		t.Fatalf("ack %q", ack)
	}
	wg.Wait()
}

func TestTCPTransport(t *testing.T) {
	exerciseTransport(t, &TCP{Stats: &Stats{}}, "127.0.0.1:0")
}

func TestInProcTransport(t *testing.T) {
	exerciseTransport(t, &InProc{Stats: &Stats{}}, "")
}

func TestCopyingOverTCP(t *testing.T) {
	exerciseTransport(t, &Copying{Inner: &TCP{}, SendCopies: 1, RecvCopies: 1, Stats: &Stats{}}, "127.0.0.1:0")
}

func TestCopyingOverInProc(t *testing.T) {
	exerciseTransport(t, &Copying{Inner: &InProc{}, SendCopies: 2, RecvCopies: 1, Stats: &Stats{}}, "")
}

func TestTCPStatsCounted(t *testing.T) {
	st := &Stats{}
	tr := &TCP{Stats: st}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(io.Discard, c)
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteGather([]byte("abc"), []byte("defg")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
	s := st.Snapshot()
	if s.BytesSent != 7 {
		t.Fatalf("BytesSent=%d", s.BytesSent)
	}
	if s.GatherSegments != 2 {
		t.Fatalf("GatherSegments=%d", s.GatherSegments)
	}
}

func TestCopyingChargesEmulatedCopies(t *testing.T) {
	st := &Stats{}
	tr := &Copying{Inner: &InProc{}, SendCopies: 2, RecvCopies: 1, Stats: st}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msg := bytes.Repeat([]byte{1}, 1000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(msg))
		_, _ = io.ReadFull(c, buf)
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	<-done
	c.Close()
	// Send side: 2 copies of 1000 bytes. Receive side: 1 copy of up to
	// 1000 bytes (possibly split across reads, but totals must match).
	if got := st.EmulatedCopyBytes.Load(); got != 3000 {
		t.Fatalf("EmulatedCopyBytes=%d want 3000", got)
	}
}

func TestInProcDialUnknownAddress(t *testing.T) {
	tr := &InProc{}
	if _, err := tr.Dial("nope"); err == nil {
		t.Fatal("want error dialing unknown inproc address")
	}
}

func TestInProcDuplicateListen(t *testing.T) {
	tr := &InProc{}
	l, err := tr.Listen("dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("dup"); err == nil {
		t.Fatal("want duplicate-address error")
	}
	l.Close()
	// After close the address is free again.
	l2, err := tr.Listen("dup")
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	l2.Close()
}

func TestInProcListenerCloseUnblocksAccept(t *testing.T) {
	tr := &InProc{}
	l, err := tr.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	l.Close()
	if err := <-errc; err == nil {
		t.Fatal("Accept must fail after Close")
	}
}

func TestInProcAutoAddressesUnique(t *testing.T) {
	tr := &InProc{}
	l1, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l1.Addr() == l2.Addr() {
		t.Fatalf("duplicate auto addresses %q", l1.Addr())
	}
}

func TestTransportNames(t *testing.T) {
	if (&TCP{}).Name() != "tcp" {
		t.Fatal("tcp name")
	}
	if (&InProc{}).Name() != "inproc" {
		t.Fatal("inproc name")
	}
	if (&Copying{Inner: &TCP{}}).Name() != "copying(tcp)" {
		t.Fatal("copying name")
	}
}

// TestTCPWriteGatherAllocs pins the control writev at zero allocations:
// the gather batch and the slice header net.Buffers.WriteTo consumes
// both live on the connection.
func TestTCPWriteGatherAllocs(t *testing.T) {
	cli, srv := connPair(t, &TCP{Stats: &Stats{}}, "127.0.0.1:0")
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := srv.Read(buf); err != nil {
				return
			}
		}
	}()
	segs := [][]byte{make([]byte, 12), make([]byte, 100), make([]byte, 4096)}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.WriteGather(segs...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("tcp WriteGather of %d segments: %v allocs, want 0", len(segs), allocs)
	}
}
