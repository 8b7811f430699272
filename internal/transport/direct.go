package transport

import (
	"fmt"
	"io"
	"os"
)

// Releaser returns a zero-copy view to its owner. It mirrors
// zcbuf.Releaser structurally, so a transport-issued release token can
// ride inside a zcbuf.Buffer without an adapter allocation.
type Releaser interface {
	Release()
}

// DirectReader is implemented by connections that can hand the caller
// a view of the next n received payload bytes without copying them —
// the shared-memory ring's claim primitive. ok reports whether the view
// was available: false means the connection carries no ring, so the
// bytes travel its stream and the caller reads them there. The view
// stays valid until release.Release() is called.
type DirectReader interface {
	ReadDirect(n int) (view []byte, release Releaser, ok bool, err error)
}

// RingConn is implemented by connections that can carry a
// shared-memory ring pair beside their byte stream: the shm transport's.
// Once the pair is installed, WriteGather publishes each segment as one
// ring record and ReadDirect claims the next record in place, while
// Read, ReadScatter and Write stay on the stream; before that,
// WriteGather writes the stream too.
type RingConn interface {
	Conn
	DirectReader
	// Promote installs the ring pair from the dialing side and hands it
	// to the peer. It must precede every stream byte.
	Promote() error
	// HasRing reports whether the ring pair is installed (on the
	// accepting side, once a read found it) and not retired.
	HasRing() bool
	// CloseRing retires the ring pair and leaves the stream open: the
	// peer's ring operations then fail, and a claim parked here returns.
	CloseRing()
	// Stream returns the connection as its byte stream alone: its
	// WriteGather stays on the stream with the ring pair installed.
	Stream() Conn
}

// Segment is one element of a deposit train: bytes, or the region
// [Off, Off+N) of an open file. A single-buffer deposit is a train of
// one.
type Segment struct {
	// B holds the payload bytes; nil for a file region.
	B []byte
	// File, when non-nil, makes the segment a file region.
	File   *os.File
	Off, N int64
}

// Len returns the segment's payload length in bytes.
func (s *Segment) Len() int64 {
	if s.File != nil {
		return s.N
	}
	return int64(len(s.B))
}

// WriteTrain sends the train's segments on c back to back, in order, as
// one logical message, and returns the bytes written. No plane keeps a
// reference to a segment once WriteTrain returns. On a tcp connection
// a file region goes disk→wire with sendfile and never enters user
// space; every other plane gets it read into memory first, and copied
// reports those bytes. A region reaching past the end of its file is
// refused before anything is written, so the stream stays framed.
func WriteTrain(c Conn, train []Segment) (n, copied int64, err error) {
	for i := range train {
		if err := checkRegion(&train[i]); err != nil {
			return 0, 0, err
		}
	}
	if tc, ok := c.(*tcpConn); ok && haveSendfile {
		n, err = tc.writeTrain(train)
		return n, 0, err
	}
	segs := make([][]byte, len(train))
	for i := range train {
		s := &train[i]
		segs[i] = s.B
		if s.File != nil {
			segs[i] = make([]byte, s.N)
			if _, err := s.File.ReadAt(segs[i], s.Off); err != nil {
				return 0, copied, fmt.Errorf("transport: file region read: %w", err)
			}
			copied += s.N
		}
	}
	n, err = c.WriteGather(segs...)
	return n, copied, err
}

// checkRegion rejects a file region that reaches past the end of its
// file.
func checkRegion(s *Segment) error {
	if s.File == nil {
		return nil
	}
	st, err := s.File.Stat()
	if err != nil {
		return fmt.Errorf("transport: file region: %w", err)
	}
	if s.Off < 0 || s.N < 0 || s.Off+s.N > st.Size() {
		return fmt.Errorf("transport: file region [%d, +%d) past end of %d-byte file: %w",
			s.Off, s.N, st.Size(), io.ErrUnexpectedEOF)
	}
	return nil
}
