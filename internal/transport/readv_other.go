//go:build !linux

package transport

import "syscall"

// scatterReader is absent off Linux: ReadScatter on tcp fills the first
// region with a plain Read.
type scatterReader struct{}

func newScatterReader(syscall.RawConn) *scatterReader { return nil }

func (*scatterReader) read([][]byte) (int, error) { panic("unreachable") }
