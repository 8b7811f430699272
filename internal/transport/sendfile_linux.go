package transport

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"syscall"
)

// haveSendfile gates the tcp plane's disk→wire path for file regions.
const haveSendfile = true

// sendFileLocked transmits one file region with sendfile at an explicit
// offset, so the file's own offset is untouched and the bytes never
// enter user space (wmu held).
func (c *tcpConn) sendFileLocked(s *Segment) (int64, error) {
	sc, ok := c.c.(syscall.Conn)
	if !ok {
		return 0, errors.New("transport: sendfile: connection does not expose a raw socket")
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return 0, fmt.Errorf("transport: sendfile: %w", err)
	}
	defer runtime.KeepAlive(s.File)
	src := int(s.File.Fd())
	pos := s.Off
	var sent int64
	for sent < s.N {
		chunk := int(min(s.N-sent, 1<<30))
		var wn int
		var serr error
		werr := raw.Write(func(fd uintptr) bool {
			wn, serr = syscall.Sendfile(int(fd), src, &pos, chunk)
			return serr != syscall.EAGAIN
		})
		if wn > 0 {
			sent += int64(wn)
		}
		if werr != nil && serr == nil {
			serr = werr
		}
		if serr == nil && wn == 0 {
			serr = io.ErrUnexpectedEOF // the file shrank under the send
		}
		if serr != nil {
			return sent, fmt.Errorf("transport: sendfile: %w", serr)
		}
	}
	return sent, nil
}
