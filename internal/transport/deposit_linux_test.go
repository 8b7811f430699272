//go:build linux

package transport

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// The send-side deposit contract, checked once for every data plane:
// the same trains travel over tcp, inproc, shm and kzc, through the
// plane's Depositor when it has one and over the WriteGather floor
// when it does not.

// depositOn sends train on c the way the ORB does.
func depositOn(c Conn, train []Segment, done func(copied bool)) (int64, error) {
	if dp, ok := c.(Depositor); ok {
		return dp.Deposit(train, done)
	}
	segs := make([][]byte, len(train))
	for i := range train {
		s := &train[i]
		segs[i] = s.B
		if s.File != nil {
			segs[i] = make([]byte, s.N)
			if _, err := s.File.ReadAt(segs[i], s.Off); err != nil {
				return 0, err
			}
		}
	}
	return c.WriteGather(segs...)
}

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

func TestDepositContract(t *testing.T) {
	const th = 4096
	path := filepath.Join(t.TempDir(), "region.bin")
	if err := os.WriteFile(path, fill(256<<10, 0x5A), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	trains := []struct {
		name  string
		train []Segment
	}{
		{"one", []Segment{{B: fill(64<<10, 1), Pinned: true}}},
		{"many", []Segment{
			{B: fill(64<<10, 2), Pinned: true},
			{B: fill(16<<10, 3), Pinned: true},
			{B: fill(8<<10, 4), Pinned: true},
		}},
		{"mixed", []Segment{
			{B: fill(100, 5)},
			{B: fill(64<<10, 6), Pinned: true},
			{File: f, Off: 4096, N: 100_000},
			{B: fill(1<<10, 7), Pinned: true}, // below the threshold
			{B: fill(32<<10, 8), Pinned: true},
		}},
		{"no-reference", []Segment{
			{B: fill(300, 9)},
			{B: fill(1<<10, 10), Pinned: true},
			{File: f, N: 50_000},
		}},
	}
	planes := []struct {
		name    string
		pair    func(t *testing.T) (Conn, Conn)
		promote bool
		refs    bool // the plane is a Depositor
	}{
		{"tcp", func(t *testing.T) (Conn, Conn) { return connPair(t, &TCP{}, "127.0.0.1:0") }, false, false},
		{"inproc", func(t *testing.T) (Conn, Conn) { return connPair(t, &InProc{}, "") }, false, false},
		{"shm", func(t *testing.T) (Conn, Conn) { return connPair(t, &SHM{}, "") }, true, false},
		{"kzc", func(t *testing.T) (Conn, Conn) { return connPair(t, &KZC{Threshold: th}, "") }, true, true},
	}
	for _, pl := range planes {
		for _, tn := range trains {
			t.Run(pl.name+"/"+tn.name, func(t *testing.T) {
				cli, srv := pl.pair(t)
				if pl.promote {
					promoteData(t, cli, srv)
				}
				if _, ok := cli.(Depositor); ok != pl.refs {
					t.Fatalf("Depositor implemented = %v, want %v", ok, pl.refs)
				}
				want := trainBytes(t, tn.train)
				got := make([]byte, len(want))
				rdone := make(chan error, 1)
				go func() {
					_, err := io.ReadFull(srv, got)
					rdone <- err
				}()
				var fired atomic.Int32
				n, err := depositOn(cli, tn.train, func(bool) { fired.Add(1) })
				if err != nil || n != int64(len(want)) {
					t.Fatalf("deposit: n=%d err=%v, want %d bytes", n, err, len(want))
				}
				if err := <-rdone; err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("bytes did not arrive in train order")
				}
				// done fires exactly once iff the plane took a reference.
				wantFired := int32(0)
				for i := range tn.train {
					if pl.refs && tn.train[i].ByRef(th) {
						wantFired = 1
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for fired.Load() < wantFired && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond)
				if n := fired.Load(); n != wantFired {
					t.Fatalf("done fired %d times, want %d", n, wantFired)
				}
			})
		}
	}

	// Zero-copy off — refused by the kernel, or the stream never
	// promoted: a train needing references is declined whole, with
	// nothing on the wire, while a train needing none still travels.
	for _, off := range []struct {
		name    string
		tr      *KZC
		promote bool
	}{
		{"kzc-disabled", &KZC{Threshold: th, Disable: true}, true},
		{"kzc-unpromoted", &KZC{Threshold: th}, false},
	} {
		t.Run(off.name, func(t *testing.T) {
			cli, srv := connPair(t, off.tr, "")
			if off.promote {
				promoteData(t, cli, srv)
			}
			done := func(bool) { t.Error("done fired on a plane that took no reference") }
			n, err := depositOn(cli, trains[2].train, done)
			if n != 0 || !errors.Is(err, ErrZeroCopyUnavailable) {
				t.Fatalf("mixed train: n=%d err=%v, want ErrZeroCopyUnavailable", n, err)
			}
			// The first bytes the peer sees are the second train's: the
			// declined one left nothing behind.
			want := trainBytes(t, trains[3].train)
			got := make([]byte, len(want))
			rdone := make(chan error, 1)
			go func() {
				_, err := io.ReadFull(srv, got)
				rdone <- err
			}()
			if n, err := depositOn(cli, trains[3].train, done); err != nil || n != int64(len(want)) {
				t.Fatalf("no-reference train: n=%d err=%v", n, err)
			}
			if err := <-rdone; err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("declined train left bytes on the wire")
			}
			time.Sleep(20 * time.Millisecond) // let a stray done surface
		})
	}
}
