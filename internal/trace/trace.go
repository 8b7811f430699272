// Package trace provides per-invocation tracing and metrics for the
// split control/data path. Aggregate counters (orb.Stats) can say how
// many deposits happened; they cannot say where one request spent its
// time or whether its payload actually took the zero-copy path. A
// trace follows one logical invocation across both connections: the
// client mints a trace context, sends it in a GIOP ServiceContext on
// the control message, and both sides record spans — marshal, control
// send, deposit transfer, unmarshal, dispatch, reply — against the
// shared trace ID, including retry attempts and ZC→marshaled
// fallbacks.
//
// The recorder is built for the allocation-free hot path of
// docs/PERF.md: spans land in a pre-allocated slab (a ring), so
// recording is a short critical section with zero heap allocation, and
// the latency/size histograms are lock-free atomics. Export happens
// out of band through the Exporter (Prometheus text, expvar, pprof)
// and through replayable span logs (WriteSpanLog / ReadSpanLog).
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ID names a trace or a span within it. Zero is "absent".
type ID uint64

// Context identifies one node of an in-flight trace: the trace it
// belongs to and the span that is its parent on the wire. The zero
// Context means "tracing disabled" and is what every untraced code
// path carries.
type Context struct {
	Trace ID
	Span  ID
}

// Valid reports whether the context belongs to a live trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// Kind classifies a span within the invocation taxonomy (see
// docs/OBSERVABILITY.md for the full model).
type Kind uint8

// Span kinds. Client-side: Invoke (the whole logical call, retries
// included), Marshal, ControlSend, DepositSend, Unmarshal (reply
// decode). Server-side: DepositRecv, Unmarshal (request decode),
// Dispatch (servant execution), ReplySend. Cross-cutting: Retry (one
// backoff+resend decision), Fallback (a ZC→marshaled degrade or an
// aborted deposit), Lease (deposit-buffer lease lifecycle), Frame (one
// farm work item).
const (
	KindInvoke Kind = iota
	KindMarshal
	KindControlSend
	KindDepositSend
	KindDepositRecv
	KindUnmarshal
	KindDispatch
	KindReplySend
	KindRetry
	KindFallback
	KindLease
	KindFrame
	// KindShmDeposit covers one payload deposit into a shared-memory
	// ring; KindShmClaim the matching zero-copy claim on the receiver.
	KindShmDeposit
	KindShmClaim
	// KindShed marks one request rejected by server admission control
	// (TRANSIENT shed) instead of being dispatched.
	KindShed
	numKinds
)

var kindNames = [numKinds]string{
	"invoke", "marshal", "control_send", "deposit_send", "deposit_recv",
	"unmarshal", "dispatch", "reply_send", "retry", "fallback", "lease",
	"frame", "shm.deposit", "shm.claim", "shed",
}

// String returns the span kind's wire/log name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts String (used by the span-log reader).
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Span is one recorded event: a timed section of an invocation, or an
// instantaneous event (Dur 0). Spans are plain values sized for slab
// storage; Op aliases an existing operation-name string, so recording
// one never allocates.
type Span struct {
	Trace  ID
	Span   ID
	Parent ID
	Kind   Kind
	// Err marks the section as failed.
	Err bool
	// Attempt is the 1-based retry attempt the span belongs to.
	Attempt uint16
	// Op is the operation (or event) name.
	Op string
	// Start is the wall-clock start in nanoseconds since the epoch.
	Start int64
	// Dur is the section length in nanoseconds (0 for point events).
	Dur int64
	// Bytes is the payload size the section moved, when meaningful.
	Bytes int64
}

// Tracer records spans into a fixed-size slab and maintains the
// standard histogram set. A nil *Tracer is a valid "disabled" tracer:
// every method is a cheap no-op, so call sites need no double guard.
//
// The slab is a ring: when full, new spans overwrite the oldest. Total
// recorded counts per kind survive the wrap (SpanCount), so tests and
// the stats gate can assert exact span production even if the slab is
// small.
type Tracer struct {
	idSeq  atomic.Uint64
	idBase uint64

	mu    sync.Mutex
	slab  []Span
	total uint64 // spans ever recorded; slab[ (total-1) % len ] is newest

	kindCounts [numKinds]atomic.Int64

	// InvokeLatencyNS observes whole-invocation client latency.
	InvokeLatencyNS Histogram
	// DispatchLatencyNS observes server-side servant execution time.
	DispatchLatencyNS Histogram
	// DepositBytes observes direct-deposit transfer sizes (both
	// directions, both sides).
	DepositBytes Histogram
	// RetryBackoffNS observes the backoff pauses taken before retries.
	RetryBackoffNS Histogram
	// FrameLatencyNS observes farm frame round trips.
	FrameLatencyNS Histogram
}

// DefaultSlabSpans is the slab capacity used by New when cap <= 0.
const DefaultSlabSpans = 4096

// New returns a Tracer whose slab holds cap spans (DefaultSlabSpans
// when cap <= 0). The slab is allocated up front; recording never
// grows it.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSlabSpans
	}
	t := &Tracer{slab: make([]Span, 0, capacity)}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.idBase = binary.BigEndian.Uint64(seed[:])
	} else {
		t.idBase = uint64(time.Now().UnixNano())
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// NewID mints a process-unique span/trace ID (never zero).
func (t *Tracer) NewID() ID {
	if t == nil {
		return 0
	}
	id := ID(t.idBase + t.idSeq.Add(1))
	if id == 0 {
		id = ID(t.idBase + t.idSeq.Add(1))
	}
	return id
}

// NewTrace mints a root context for one logical invocation: a fresh
// trace ID whose root span ID doubles as the parent of the wire-level
// spans on both sides.
func (t *Tracer) NewTrace() Context {
	if t == nil {
		return Context{}
	}
	return Context{Trace: t.NewID(), Span: t.NewID()}
}

// Record stores s in the slab. When s.Span is zero a fresh span ID is
// assigned. Nil-safe and allocation-free; the critical section is a
// slab-slot copy.
func (t *Tracer) Record(s Span) {
	if t == nil || !s.Valid() {
		return
	}
	if s.Span == 0 {
		s.Span = t.NewID()
	}
	t.kindCounts[s.Kind].Add(1)
	t.mu.Lock()
	if len(t.slab) < cap(t.slab) {
		t.slab = append(t.slab, s)
	} else {
		t.slab[t.total%uint64(cap(t.slab))] = s
	}
	t.total++
	t.mu.Unlock()
}

// Valid reports whether the span belongs to a live trace.
func (s Span) Valid() bool { return s.Trace != 0 }

// SpanCount returns the total number of spans of kind k ever recorded
// (not bounded by the slab size).
func (t *Tracer) SpanCount(k Kind) int64 {
	if t == nil {
		return 0
	}
	return t.kindCounts[k].Load()
}

// TotalSpans returns the total number of spans ever recorded.
func (t *Tracer) TotalSpans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.total)
}

// Spans returns a copy of the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.slab))
	if t.total > uint64(len(t.slab)) {
		// Wrapped: the oldest retained span sits at the write cursor.
		at := t.total % uint64(cap(t.slab))
		out = append(out, t.slab[at:]...)
		out = append(out, t.slab[:at]...)
	} else {
		out = append(out, t.slab...)
	}
	return out
}

// Reset drops retained spans and zeroes every histogram and counter
// (tests and long-lived daemons that rotate span logs).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slab = t.slab[:0]
	t.total = 0
	t.mu.Unlock()
	for i := range t.kindCounts {
		t.kindCounts[i].Store(0)
	}
	for _, h := range []*Histogram{
		&t.InvokeLatencyNS, &t.DispatchLatencyNS, &t.DepositBytes,
		&t.RetryBackoffNS, &t.FrameLatencyNS,
	} {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.n.Store(0)
	}
}

// Now returns the current time in epoch nanoseconds. Centralized so
// call sites stay terse; the recorder itself never reads the clock.
func Now() int64 { return time.Now().UnixNano() }
