package orb

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"zcorba/internal/trace"
	"zcorba/internal/zcbuf"
)

// This file implements registered-buffer scatter/gather deposits: one
// invocation carries N payload buffers as a single deposit train (one
// vectored write on the data plane, one ring reservation on shared
// memory), and each buffer gets its own completion callback the moment
// its bytes are safe to reuse. Registration (zcbuf.Register) is
// optional but composes: registered buffers get BeginSend/EndSend
// bracketing, so a DebugWriteGuard-armed registration turns an early
// reuse into a caught fault instead of silent corruption.

// gatherState is the completion ledger of one SendBuffers train. No
// data plane keeps a reference to a buffer once its write returns, so
// a buffer is safe to reuse exactly when the send attempt chain has
// reached its outcome — and not before: a train that degraded to the
// marshaled fallback re-reads every buffer. Every callback therefore
// fires once, in finish. Ledgers are pooled so a steady-state train
// costs no per-train slice garbage.
type gatherState struct {
	o     *ORB
	cb    func(i int, err error)
	bufs  []*zcbuf.Buffer
	regs  []*zcbuf.Registration
	start int64
}

var gatherPool = sync.Pool{New: func() any { return new(gatherState) }}

func newGatherState(o *ORB, bufs []*zcbuf.Buffer, cb func(i int, err error)) *gatherState {
	g := gatherPool.Get().(*gatherState)
	g.o, g.cb = o, cb
	g.bufs = bufs
	g.regs = slices.Grow(g.regs[:0], len(bufs))[:len(bufs)]
	g.start = trace.Now()
	return g
}

// finish reports the outcome of the send attempt chain (nil: the
// request left this process — deposited, marshaled, or completed
// locally): each buffer's per-send pin is released and its callback
// runs with err. The ledger then returns to the pool.
func (g *gatherState) finish(err error) {
	for i, b := range g.bufs {
		if r := g.regs[i]; r != nil {
			r.EndSend()
		}
		b.Release()
		g.o.stats.GatherCompletions.Add(1)
		if tr := g.o.tracer; tr != nil {
			tr.CompletionLatencyNS.Record(trace.Now() - g.start)
		}
		if g.cb != nil {
			g.cb(i, err)
		}
	}
	clear(g.regs)
	g.o, g.cb, g.bufs = nil, nil, nil
	gatherPool.Put(g)
}

// SendBuffers invokes op with bufs as its (all ZC octet stream)
// in-parameters, gathering the buffers into a single deposit train on
// the data plane: one vectored write on tcp channels, one ring
// reservation on shared memory. onComplete(i, err) fires exactly once
// per buffer, before SendBuffers returns, when buffer i is safe to
// reuse or modify; err is non-nil when the train failed before the
// buffer's bytes were durably consumed. Completion is about buffer
// reuse, not server receipt: the invocation's outcome arrives through
// the returned Call.
//
// Each buffer is retained for the duration of its send. Buffers
// registered with zcbuf.Register get BeginSend/EndSend bracketing, so
// an armed DebugWriteGuard faults writes landing inside the window.
func (r *ObjectRef) SendBuffers(ctx context.Context, op *Operation,
	bufs []*zcbuf.Buffer, onComplete func(i int, err error)) (*Call, error) {
	if op == nil {
		return nil, fmt.Errorf("orb: SendBuffers: nil operation")
	}
	in := op.InParams()
	if len(in) != len(bufs) {
		return nil, fmt.Errorf("orb: SendBuffers: %s has %d in-parameters, got %d buffers",
			op.Name, len(in), len(bufs))
	}
	for i, p := range in {
		if !p.Type.IsZCOctetSeq() {
			return nil, fmt.Errorf("orb: SendBuffers: %s parameter %d (%s) is not a ZC octet stream",
				op.Name, i, p.Name)
		}
		if bufs[i] == nil {
			return nil, fmt.Errorf("orb: SendBuffers: buffer %d is nil", i)
		}
	}
	o := r.orb
	g := newGatherState(o, bufs, onComplete)
	args := make([]any, len(bufs))
	for i, b := range bufs {
		b.Retain()
		args[i] = b
		if reg, ok := zcbuf.Lookup(b); ok {
			g.regs[i] = reg
			reg.BeginSend()
		}
	}
	call := r.startCtx(ctx, op, args, o.tracer.NewTrace(), 1)
	if call.done {
		g.finish(call.err)
	} else {
		g.finish(nil)
	}
	return call, nil
}
