package transport

import (
	"fmt"
	"strings"
)

// SplitScheme splits an endpoint URI into its scheme and the address
// the matching transport dials: "tcp://h:p" → ("tcp", "h:p"),
// "shm:///tmp/a.sock" → ("shm", "/tmp/a.sock"). Addresses without a
// scheme return ("", addr) so callers can apply their own default.
// The shm rest keeps no scheme here but SHM accepts both forms.
func SplitScheme(addr string) (scheme, rest string) {
	i := strings.Index(addr, "://")
	if i < 0 {
		return "", addr
	}
	return addr[:i], addr[i+len("://"):]
}

// DefaultInProc is the process-wide registry behind inproc:// URIs
// resolved by FromAddr: every caller that parses an inproc address
// through FromAddr reaches the same listeners.
var DefaultInProc = &InProc{}

// FromAddr maps an endpoint URI to the transport it implies plus the
// address to pass to that transport's Listen/Dial. Recognized schemes
// are tcp://, inproc:// and shm://; a bare address defaults to TCP
// (the historical behavior of every dial path in the repo). The stats
// sink, when non-nil, is attached to freshly created transports
// (DefaultInProc keeps its own).
func FromAddr(addr string, stats *Stats) (Transport, string, error) {
	scheme, rest := SplitScheme(addr)
	switch scheme {
	case "", "tcp":
		return &TCP{Stats: stats}, rest, nil
	case "inproc":
		return DefaultInProc, rest, nil
	case "shm":
		return &SHM{Stats: stats}, rest, nil
	default:
		return nil, "", fmt.Errorf("transport: unknown endpoint scheme %q in %q", scheme, addr)
	}
}
