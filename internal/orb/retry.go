package orb

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy configures automatic re-invocation of failed calls
// (Options.Retry). The zero value disables retries.
//
// Only CORBA system exceptions that indicate a transport- or
// liveness-level failure are retried — COMM_FAILURE and TRANSIENT. The
// completion status gates safety: CompletedNo means the operation never
// ran and is always safe to retry; CompletedMaybe means the request may
// have executed before the reply was lost, so only operations marked
// Idempotent (or any operation when RetryNonIdempotent is set) are
// retried. CompletedYes and TIMEOUT are never retried automatically.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts including the first;
	// values <= 1 disable retries.
	MaxAttempts int
	// InitialBackoff is the pause before the first retry (default 2ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 500ms).
	MaxBackoff time.Duration
	// RetryNonIdempotent also retries CompletedMaybe failures of
	// operations not marked Idempotent. Use only when the application
	// tolerates duplicate execution.
	RetryNonIdempotent bool
}

// backoffMultiplier grows the backoff between attempts; backoffJitter
// adds up to that fraction of random extra backoff so synchronized
// clients do not retry in lockstep.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.2
)

// enabled reports whether the policy performs any retries.
func (p *RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// retryable reports whether err may be retried for op under this
// policy.
func (p *RetryPolicy) retryable(op *Operation, err error) bool {
	var sys *SystemException
	if !asErr(err, &sys) {
		return false
	}
	switch sys.Name {
	case "COMM_FAILURE", "TRANSIENT":
	default:
		return false
	}
	switch sys.Completed {
	case CompletedNo:
		return true
	case CompletedMaybe:
		return op.Idempotent || p.RetryNonIdempotent
	default:
		return false
	}
}

// backoff returns the pause before retry number attempt (1-based):
// capped exponential growth plus jitter.
func (p *RetryPolicy) backoff(attempt int) time.Duration {
	d := p.InitialBackoff
	if d <= 0 {
		d = 2 * time.Millisecond
	}
	limit := p.MaxBackoff
	if limit <= 0 {
		limit = 500 * time.Millisecond
	}
	for i := 1; i < attempt && d < limit; i++ {
		d *= backoffMultiplier
	}
	if d > limit {
		d = limit
	}
	return d + time.Duration(rand.Float64()*backoffJitter*float64(d))
}

// sleepCtx pauses for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := getTimer(d)
	defer putTimer(t)
	select {
	case <-t.C:
		return nil
	case <-done:
		return ctx.Err()
	}
}
