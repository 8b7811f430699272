package orb

import (
	"context"

	"zcorba/internal/trace"
)

// This file implements the pipelined invocation mode: a bounded
// in-flight window over one object reference, so small-block transfers
// are no longer limited to one request per round trip. GIOP already
// permits any number of outstanding requests per connection (replies
// carry the request id); the window simply keeps the pipe full while
// bounding buffer commitment at the receiver — the same overlap of
// transfer and processing the paper's §5.4 farm achieves with
// concurrent workers, applied to a single caller.

// ReplyFunc observes one completed pipelined invocation. result and
// outs follow the Invoke conventions (the callback owns any
// *zcbuf.Buffer results and must Release them).
type ReplyFunc func(result any, outs []any, err error)

// Pipeline issues invocations of one operation with up to Window
// requests in flight. It is owned by a single goroutine; replies are
// reaped in submission order. A Pipeline amortizes the round trip, not
// the marshal cost: each Submit still marshals and sends synchronously.
type Pipeline struct {
	ref    *ObjectRef
	op     *Operation
	window int
	calls  []*Call // FIFO of in-flight calls
	cbs    []ReplyFunc
	err    error
}

// Pipeline returns a pipelined invoker for op with the given window
// (values < 1 are treated as 1, which degenerates to synchronous
// invocation).
func (r *ObjectRef) Pipeline(op *Operation, window int) *Pipeline {
	if window < 1 {
		window = 1
	}
	return &Pipeline{ref: r, op: op, window: window}
}

// Submit sends one invocation, first reaping the oldest in-flight call
// if the window is full. fn (optional) receives the completed result
// when the call is reaped; a call completing in error with no callback
// poisons the pipeline, and the error returns from this or a later
// Submit/Flush. Errors observed by a callback are considered handled
// and do not poison the pipeline.
func (p *Pipeline) Submit(args []any, fn ReplyFunc) error {
	if p.err != nil {
		return p.err
	}
	if len(p.calls) >= p.window {
		p.reap()
		if p.err != nil {
			return p.err
		}
	}
	call := p.ref.startCtx(context.Background(), p.op, args, p.ref.orb.tracer.NewTrace(), 1)
	p.calls = append(p.calls, call)
	p.cbs = append(p.cbs, fn)
	return nil
}

// reap completes the oldest in-flight call. When the ORB's retry policy
// is enabled and the call failed retryably, the invocation is re-issued
// synchronously before the callback observes a result — with retries
// on, Submit argument buffers must therefore stay valid until the call
// is reaped.
func (p *Pipeline) reap() {
	call, fn := p.calls[0], p.cbs[0]
	copy(p.calls, p.calls[1:])
	copy(p.cbs, p.cbs[1:])
	p.calls = p.calls[:len(p.calls)-1]
	p.cbs = p.cbs[:len(p.cbs)-1]
	result, outs, err := call.wait(0)
	if err != nil && p.ref.orb.opts.Retry.enabled() &&
		p.ref.orb.opts.Retry.retryable(p.op, err) {
		p.ref.orb.stats.Retries.Add(1)
		if call.tc.Valid() {
			// The re-invocation stays inside the failed submission's
			// trace; the retry span is immediate (no backoff here).
			p.ref.orb.tracer.Record(trace.Span{
				Trace: call.tc.Trace, Parent: call.tc.Span, Kind: trace.KindRetry,
				Op: p.op.Name, Attempt: call.attempt, Err: true, Start: trace.Now(),
			})
		}
		result, outs, err = p.ref.invokeTraced(context.Background(), p.op, call.args, 0, call.tc)
	}
	freeCall(call)
	if fn != nil {
		fn(result, outs, err)
	} else if err != nil && p.err == nil {
		p.err = err
	}
}

// Flush drains every in-flight call and returns the pipeline's first
// unhandled error. The pipeline is reusable after Flush.
func (p *Pipeline) Flush() error {
	for len(p.calls) > 0 {
		p.reap()
	}
	err := p.err
	p.err = nil
	return err
}
