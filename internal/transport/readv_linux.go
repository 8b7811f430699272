package transport

import (
	"io"
	"syscall"
	"unsafe"
)

// scatterReader is the readv half of a socket: one prebuilt poller
// callback and one iovec array, reused for every read so the receive
// hot path allocates nothing.
type scatterReader struct {
	raw syscall.RawConn
	fn  func(fd uintptr) bool
	iov []syscall.Iovec
	n   int
	err error
}

func newScatterReader(raw syscall.RawConn) *scatterReader {
	r := &scatterReader{raw: raw}
	r.fn = func(fd uintptr) bool {
		r.n, r.err = Readv(fd, r.iov)
		// EAGAIN parks the caller in the runtime poller until the
		// socket is readable again.
		return r.err != syscall.EAGAIN
	}
	return r
}

// read fills regions with one readv, waiting for readability like Read.
func (r *scatterReader) read(regions [][]byte) (int, error) {
	r.iov = SetIovecs(r.iov, regions)
	cerr := r.raw.Read(r.fn)
	clear(r.iov) // hold no reference to the caller's buffers
	if cerr != nil {
		return 0, cerr
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.n == 0 {
		return 0, io.EOF
	}
	return r.n, nil
}

// SetIovecs points iov (reusing its storage) at the non-empty regions.
func SetIovecs(iov []syscall.Iovec, regions [][]byte) []syscall.Iovec {
	iov = iov[:0]
	for _, p := range regions {
		if len(p) > 0 {
			v := syscall.Iovec{Base: &p[0]}
			v.SetLen(len(p))
			iov = append(iov, v)
		}
	}
	return iov
}

// Readv is one nonblocking readv(2) of fd into iov, retried on EINTR.
// A negative count from the kernel is reported as 0 with the error.
func Readv(fd uintptr, iov []syscall.Iovec) (int, error) {
	if len(iov) == 0 {
		return 0, nil
	}
	for {
		n, _, e := syscall.Syscall(syscall.SYS_READV, fd,
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		switch e {
		case 0:
			return int(n), nil
		case syscall.EINTR:
			continue
		default:
			return 0, e
		}
	}
}
