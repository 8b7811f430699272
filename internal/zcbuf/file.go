package zcbuf

import (
	"fmt"
	"io"
	"os"
)

// File is a file-backed bulk payload: a region of an open file that
// the tcp data plane deposits disk→wire with sendfile, so the bytes
// never enter user space. It is the file analogue of Buffer for the ZC
// octet-stream parameter slots — a servant returns a File where it
// would otherwise return a Buffer, and the ORB hands it to the data
// plane as a file-region segment; planes without sendfile read the
// region into memory.
//
// Unlike Buffer, File is not reference counted: Release closes the
// file descriptor, and the ORB releases reply values it transmitted on
// behalf of a servant (mirroring its Buffer handling). Callers passing
// a File as a request argument keep ownership.
type File struct {
	f   *os.File
	off int64
	n   int64
}

// WrapFile adopts a region of f — n bytes starting at off — as a
// file-backed payload. The caller must not close f until the payload's
// Release; the region length must fit the deposit size slot (uint32).
func WrapFile(f *os.File, off, n int64) (*File, error) {
	if f == nil {
		return nil, fmt.Errorf("zcbuf: WrapFile(nil)")
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("zcbuf: WrapFile: negative region [%d, +%d)", off, n)
	}
	if n > int64(^uint32(0)) {
		return nil, fmt.Errorf("zcbuf: WrapFile: region %d exceeds deposit size limit", n)
	}
	return &File{f: f, off: off, n: n}, nil
}

// Len returns the region length in bytes.
func (x *File) Len() int64 { return x.n }

// Offset returns the region's starting offset within the file.
func (x *File) Offset() int64 { return x.off }

// OS returns the underlying file for transports that transmit the
// region directly (sendfile).
func (x *File) OS() *os.File { return x.f }

// Bytes reads the region into memory — the fallback when the data
// plane has no sendfile (or the shm ring degraded to the marshaled
// path). The read does not disturb the file offset.
func (x *File) Bytes() ([]byte, error) {
	p := make([]byte, x.n)
	m, err := x.f.ReadAt(p, x.off)
	if int64(m) != x.n {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("zcbuf: file payload read: %w", err)
	}
	return p, nil
}

// Release closes the underlying file. It is safe to call once.
func (x *File) Release() {
	if x.f != nil {
		_ = x.f.Close()
		x.f = nil
	}
}
