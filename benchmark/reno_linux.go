package main

import (
	"os"
	"strings"
	"syscall"

	"zcorba/internal/transport"
)

// renoTCP is transport.TCP with every socket's congestion control set to
// reno. The ORB sees the same connections (the wrapper returns them
// untouched), so nothing in the program changes; what changes is a host
// setting the benchmark must not inherit. Where the host's default is
// BBR, as on the sizing host, every send is paced by an hrtimer from a
// bandwidth estimate that, on an application-limited loopback flow,
// settles at one of a few arbitrary levels for the life of the
// connection: the same code ran at 13 000, 8 400 or 5 000 zput/s
// depending on the draw (README "Host findings"). Reno never paces,
// is built into every kernel and needs no privilege.
type renoTCP struct{ *transport.TCP }

func setReno(c transport.Conn) {
	rc, ok := c.(transport.RawConner)
	if !ok {
		return
	}
	sc, err := rc.SyscallConn()
	if err != nil {
		return
	}
	_ = sc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptString(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CONGESTION, "reno")
	})
}

func (t renoTCP) Dial(addr string) (transport.Conn, error) {
	c, err := t.TCP.Dial(addr)
	if err == nil {
		setReno(c)
	}
	return c, err
}

func (t renoTCP) Listen(addr string) (transport.Listener, error) {
	l, err := t.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return renoListener{l}, nil
}

type renoListener struct{ transport.Listener }

func (l renoListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		setReno(c)
	}
	return c, err
}

// congestionInForce reads back what a connection dialled through
// renoTCP runs under, for the host block: if a change to the transport
// ever hides the socket from setReno, the record says so.
func congestionInForce() string {
	inForce := "unknown"
	t := renoTCP{&transport.TCP{}}
	if l, err := t.Listen("127.0.0.1:0"); err == nil {
		defer l.Close()
		if c, err := t.Dial(l.Addr()); err == nil {
			defer c.Close()
			if rc, ok := c.(transport.RawConner); ok {
				if sc, err := rc.SyscallConn(); err == nil {
					_ = sc.Control(func(fd uintptr) {
						// The syscall package has no string getsockopt; the
						// four-byte one reads "reno", "bbr" or "cubi(c)".
						if v, err := syscall.GetsockoptInet4Addr(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CONGESTION); err == nil {
							inForce = strings.TrimRight(string(v[:]), "\x00")
						}
					})
				}
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/net/ipv4/tcp_congestion_control"); err == nil {
		inForce += " (host default " + strings.TrimSpace(string(b)) + ")"
	}
	return inForce
}
