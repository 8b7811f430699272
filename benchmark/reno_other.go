//go:build !linux

package main

import "zcorba/internal/transport"

// renoTCP is plain transport.TCP where the congestion control cannot be
// chosen per socket.
type renoTCP struct{ *transport.TCP }

func congestionInForce() string { return "host default" }
