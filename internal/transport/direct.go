package transport

import (
	"errors"
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
// the shared-memory data plane's claim primitive. ok reports whether
// the view was available: false means the caller must fall back to the
// copying Read path (for example, the stream is not ring-backed, or
// the next record does not align with n). The view stays valid until
// release.Release() is called.
type DirectReader interface {
	ReadDirect(n int) (view []byte, release Releaser, ok bool, err error)
}

// DefaultZeroCopyThreshold is the minimum payload size for which a
// kernel zero-copy send (MSG_ZEROCOPY) is attempted when no explicit
// threshold is configured or negotiated. Below it, page pinning and
// completion bookkeeping cost more than the copy they save.
const DefaultZeroCopyThreshold = 32 << 10

// ErrZeroCopyUnavailable reports that a connection cannot perform
// kernel zero-copy sends — the kernel rejected SO_ZEROCOPY, the
// connection degraded after copied completions, or the stream never
// promoted to a data channel. Callers must fall back to a path that
// needs no references (for the ORB: the standard marshaled path).
var ErrZeroCopyUnavailable = errors.New("transport: kernel zero-copy unavailable")

// ErrKernelZCUnsupported reports that the kzc transport is not
// available on this platform (non-Linux builds).
var ErrKernelZCUnsupported = errors.New("transport: kzc requires linux (MSG_ZEROCOPY + sendfile)")

// Segment is one element of a deposit train: plain bytes, pinned pooled
// bytes, or a file region. A single-buffer deposit is a train of one.
type Segment struct {
	// B holds the payload bytes; nil for a file region.
	B []byte
	// Pinned marks B as memory the caller keeps unmodified until the
	// train's done callback (or its own lease backstop) says otherwise,
	// which is what entitles a plane to send it by reference.
	Pinned bool
	// File, when non-nil, makes the segment the region [Off, Off+N) of
	// an open file; a plane with kernel assist moves it disk→wire.
	File   *os.File
	Off, N int64
}

// ByRef reports whether a plane with the given threshold sends the
// segment by reference rather than copying it into the socket: below
// the threshold, pinning and completion bookkeeping cost more than the
// copy. Caller and plane decide with this one predicate, so they agree
// on which segments the done callback covers.
func (s *Segment) ByRef(threshold int) bool {
	return s.Pinned && s.File == nil && len(s.B) >= threshold
}

// Depositor is the one optional send capability of a data plane: a
// connection that can hold references to the caller's payload instead
// of copying it (kzc: MSG_ZEROCOPY for pinned segments, sendfile for
// file regions). Planes that hold no references — tcp, shm, inproc and
// the Copying/Faulty wrappers — do not implement it; Conn.WriteGather
// is their (and everyone's) floor.
//
// Deposit sends the train's segments back to back, in order, as one
// logical message and returns the bytes written. Segments satisfying
// ByRef(Threshold()) go out by reference; if there is at least one,
// done fires exactly once — possibly before Deposit returns, possibly
// on another goroutine — when the plane has dropped every reference,
// with copied=true when the kernel (or a degraded send) copied after
// all. A completion the kernel never reports is the caller's lease
// sweeper's to reclaim. A train without such a segment never fires
// done.
//
// When the train needs by-reference sends the connection cannot do
// (SO_ZEROCOPY refused, degraded after copied completions, never
// promoted), Deposit returns ErrZeroCopyUnavailable with nothing
// written and done never fires. Any other error means the stream broke
// mid-train; done still fires if references were taken.
type Depositor interface {
	Deposit(train []Segment, done func(copied bool)) (int64, error)
	// Threshold returns the connection's negotiated minimum size for
	// by-reference sends.
	Threshold() int
}
