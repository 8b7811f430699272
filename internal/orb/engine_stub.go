//go:build !linux

package orb

import "errors"

// engine is the event-driven connection tier (engine_linux.go). On
// platforms without epoll it never constructs: Options.Engine degrades
// to the goroutine-per-connection loop, the same stub discipline the
// shm transport uses.
type engine struct{}

func newEngine(*ORB) (*engine, error) {
	return nil, errors.New("orb: event engine requires Linux epoll")
}

// add reports whether the connection joined the event tier; the stub
// never takes one.
func (*engine) add(*conn) bool { return false }

func (*engine) stop() {}
