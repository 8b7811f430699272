//go:build !linux

package transport

import "errors"

// haveSendfile is false off Linux: file regions on tcp are read into
// memory like on every other plane.
const haveSendfile = false

func (c *tcpConn) sendFileLocked(*Segment) (int64, error) {
	return 0, errors.New("transport: sendfile requires linux")
}
