//go:build linux

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The send-side deposit contract, checked once for every data plane:
// the same trains travel over tcp, inproc and shm through WriteTrain.
// tcp sends file regions with sendfile; the others read them into
// memory first and report the copy.

// trainBytes is what the receiver must see: the segments in train order.
func trainBytes(t *testing.T, train []Segment) []byte {
	t.Helper()
	var want []byte
	for i := range train {
		s := &train[i]
		if s.File == nil {
			want = append(want, s.B...)
			continue
		}
		b := make([]byte, s.N)
		if _, err := s.File.ReadAt(b, s.Off); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	return want
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// regionFile writes n patterned bytes to a fresh file and opens it.
func regionFile(t *testing.T, n int) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "region.bin")
	if err := os.WriteFile(path, fill(n, 0x5A), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestDepositContract(t *testing.T) {
	f := regionFile(t, 256<<10)
	trains := []struct {
		name   string
		train  []Segment
		writes int64 // tcp writes: one per byte run, one per file region
	}{
		{"one", []Segment{{B: fill(64<<10, 1)}}, 1},
		{"many", []Segment{
			{B: fill(64<<10, 2)},
			{B: fill(16<<10, 3)},
			{B: fill(8<<10, 4)},
		}, 1},
		{"mixed", []Segment{
			{B: fill(100, 5)},
			{File: f, Off: 4096, N: 100_000},
			{B: fill(32<<10, 6)},
		}, 3},
		{"file-last", []Segment{
			{B: fill(300, 7)},
			{B: fill(1<<10, 8)},
			{File: f, N: 50_000},
		}, 2},
	}
	planes := []struct {
		name     string
		pair     func(t *testing.T) (Conn, Conn)
		promote  bool
		sendfile bool
	}{
		{"tcp", func(t *testing.T) (Conn, Conn) {
			return connPair(t, &TCP{Stats: &Stats{}}, "127.0.0.1:0")
		}, false, true},
		{"inproc", func(t *testing.T) (Conn, Conn) { return connPair(t, &InProc{}, "") }, false, false},
		{"shm", func(t *testing.T) (Conn, Conn) { return connPair(t, &SHM{}, "") }, true, false},
	}
	for _, pl := range planes {
		for _, tn := range trains {
			t.Run(pl.name+"/"+tn.name, func(t *testing.T) {
				cli, srv := pl.pair(t)
				if pl.promote {
					promote(t, cli, srv)
				}
				want := trainBytes(t, tn.train)
				var wantFile int64
				for i := range tn.train {
					if tn.train[i].File != nil {
						wantFile += tn.train[i].N
					}
				}
				got := make([]byte, len(want))
				rdone := make(chan error, 1)
				go func() {
					if !pl.promote {
						_, err := io.ReadFull(srv, got)
						rdone <- err
						return
					}
					// The ring carries one record per segment.
					off := 0
					for i := range tn.train {
						n := int(tn.train[i].Len())
						view, rel, ok, err := srv.(DirectReader).ReadDirect(n)
						if err != nil || !ok {
							rdone <- fmt.Errorf("claim %d: ok=%v err=%v", i, ok, err)
							return
						}
						off += copy(got[off:], view)
						rel.Release()
					}
					rdone <- nil
				}()
				var before StatsSnapshot
				if tc, ok := cli.(*tcpConn); ok {
					before = tc.stats.Snapshot()
				}
				n, copied, err := WriteTrain(cli, tn.train)
				if err != nil || n != int64(len(want)) {
					t.Fatalf("WriteTrain: n=%d err=%v, want %d bytes", n, err, len(want))
				}
				if err := <-rdone; err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("bytes did not arrive in train order")
				}
				if !pl.sendfile {
					if copied != wantFile {
						t.Fatalf("copied=%d, want the %d file-region bytes", copied, wantFile)
					}
					return
				}
				// File regions never enter user space on tcp: no
				// materializing read, and each region is its own
				// sendfile write between the writevs around it.
				if copied != 0 {
					t.Fatalf("tcp materialized %d file-region bytes", copied)
				}
				after := cli.(*tcpConn).stats.Snapshot()
				if w := after.Writes - before.Writes; w != tn.writes {
					t.Fatalf("tcp writes per train = %d, want %d", w, tn.writes)
				}
				if b := after.BytesSent - before.BytesSent; b != int64(len(want)) {
					t.Fatalf("tcp BytesSent = %d, want %d", b, len(want))
				}
			})
		}
	}
}

// TestWriteTrainFilePastEOF: a file region reaching past the end of
// its file fails at once, puts nothing on the wire, and leaves the
// stream framed for the next train.
func TestWriteTrainFilePastEOF(t *testing.T) {
	f := regionFile(t, 64<<10)
	cli, srv := connPair(t, &TCP{}, "127.0.0.1:0")
	bad := []Segment{{B: fill(10, 1)}, {File: f, Off: 32 << 10, N: 64 << 10}}
	if n, _, err := WriteTrain(cli, bad); err == nil || n != 0 {
		t.Fatalf("past-EOF region: n=%d err=%v, want an error with nothing written", n, err)
	}
	good := []Segment{{B: fill(10, 2)}, {File: f, Off: 1000, N: 5000}}
	want := trainBytes(t, good)
	got := make([]byte, len(want))
	rdone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(srv, got)
		rdone <- err
	}()
	if n, _, err := WriteTrain(cli, good); err != nil || n != int64(len(want)) {
		t.Fatalf("next train: n=%d err=%v", n, err)
	}
	if err := <-rdone; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the refused train desynced the stream")
	}
	if _, _, err := WriteTrain(cli, []Segment{{File: f, Off: -1, N: 1}}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("negative offset: err=%v", err)
	}
}
