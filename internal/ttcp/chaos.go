package ttcp

import (
	"time"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

// Chaos wraps tr with a seeded fault injector tuned for a live
// benchmark run: sporadic resets of the control stream, which also
// carries the deposit trains, plus the occasional refused dial. The
// same seed reproduces the same fault schedule against the same
// request stream. The returned injector reports how many faults fired
// and where.
func Chaos(tr transport.Transport, seed int64) (transport.Transport, *transport.FaultInjector) {
	inj := transport.NewFaultInjector(seed).
		Add(transport.Rule{Op: transport.OpRead, Class: transport.ClassControl,
			Kind: transport.FaultReset, Prob: 0.0005}).
		Add(transport.Rule{Op: transport.OpWrite, Class: transport.ClassControl,
			Kind: transport.FaultReset, Prob: 0.0002}).
		Add(transport.Rule{Op: transport.OpDial,
			Kind: transport.FaultRefuse, Prob: 0.02, Count: 3})
	return &transport.Faulty{Inner: tr, Inj: inj}, inj
}

// ChaosRetry is the client retry policy paired with Chaos: the
// benchmark's put/zput stream is treated as retry-safe (the sink
// discards payloads), so retries are allowed even on uncertain
// completion.
func ChaosRetry() orb.RetryPolicy {
	return orb.RetryPolicy{
		MaxAttempts:        5,
		InitialBackoff:     time.Millisecond,
		MaxBackoff:         50 * time.Millisecond,
		RetryNonIdempotent: true,
	}
}
