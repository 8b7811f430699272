package orb

import (
	"testing"
	"time"

	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// tracedTCPPair is tcpPair with a live tracer on both ORBs, so tests
// can assert exact span production alongside the aggregate counters.
func tracedTCPPair(t *testing.T, zc bool) (*pair, *trace.Tracer, *trace.Tracer) {
	ct, st := trace.New(0), trace.New(0)
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: zc, Tracer: st},
		Options{Transport: &transport.TCP{}, ZeroCopy: zc, Tracer: ct})
	return p, ct, st
}

// TestStatsAndSpanRegression is the observability regression gate: a
// fixed invocation mix over loopback must produce exactly the expected
// aggregate counters AND exactly the expected span counts on both
// sides. Any change that silently adds, drops, or double-counts
// requests, copies, deposits, or spans fails here.
func TestStatsAndSpanRegression(t *testing.T) {
	p, ct, st := tracedTCPPair(t, true)

	buf := zcbuf.Wrap(pattern(4096))
	want := checksum(buf.Bytes())
	for i := 0; i < 5; i++ {
		res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{buf})
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if res.(uint32) != want {
			t.Fatalf("put %d checksum: %v", i, res)
		}
	}
	data := pattern(4096)
	if _, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{data}); err != nil {
		t.Fatalf("put_std: %v", err)
	}

	// Aggregate counters: 5 ZC puts + 1 standard put.
	counters := []struct {
		name string
		got  int64
		want int64
	}{
		{"client RequestsSent", p.client.Stats().RequestsSent.Load(), 6},
		{"client RepliesReceived", p.client.Stats().RepliesReceived.Load(), 6},
		{"server RequestsServed", p.server.Stats().RequestsServed.Load(), 6},
		{"client DepositsSent", p.client.Stats().DepositsSent.Load(), 5},
		{"server DepositsReceived", p.server.Stats().DepositsReceived.Load(), 5},
		{"client DepositBytesSent", p.client.Stats().DepositBytesSent.Load(), 5 * 4096},
		{"server DepositBytesRecv", p.server.Stats().DepositBytesRecv.Load(), 5 * 4096},
		// put_std copies payload bytes: one marshal copy on the client,
		// one demarshal copy on the server. On the server it also
		// breaks the layout the puts established: puts 3-5 were read
		// speculatively (hits), put_std missed, and its marshaled
		// payload read into the predicted regions moved once.
		{"client PayloadCopies", p.client.Stats().PayloadCopies.Load(), 1},
		{"server PayloadCopies", p.server.Stats().PayloadCopies.Load(), 2},
		{"server SpeculationHits", p.server.Stats().SpeculationHits.Load(), 3},
		{"server SpeculationMisses", p.server.Stats().SpeculationMisses.Load(), 1},
		{"client ZCFallbacks", p.client.Stats().ZCFallbacks.Load(), 0},
		{"client Retries", p.client.Stats().Retries.Load(), 0},
	}
	for _, c := range counters {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// Span production, client side: every invocation records invoke,
	// marshal, control_send and reply-unmarshal. The 5 page deposits
	// ride their control writev (inline), so none records deposit_send.
	clientSpans := []struct {
		kind trace.Kind
		want int64
	}{
		{trace.KindInvoke, 6}, {trace.KindMarshal, 6},
		{trace.KindControlSend, 6}, {trace.KindDepositSend, 0},
		{trace.KindUnmarshal, 6}, {trace.KindRetry, 0},
		{trace.KindFallback, 0}, {trace.KindDepositRecv, 0},
	}
	for _, c := range clientSpans {
		if got := ct.SpanCount(c.kind); got != c.want {
			t.Errorf("client %v spans = %d, want %d", c.kind, got, c.want)
		}
	}
	// Server side: request unmarshal, dispatch and reply send for all
	// six; inline trains record no deposit_recv. A reply_send span is
	// recorded once its write returns, which can be after the client
	// has the reply.
	waitFor(t, "the last server reply_send span", func() bool {
		return st.SpanCount(trace.KindReplySend) >= 6
	})
	serverSpans := []struct {
		kind trace.Kind
		want int64
	}{
		{trace.KindUnmarshal, 6}, {trace.KindDispatch, 6},
		{trace.KindReplySend, 6}, {trace.KindDepositRecv, 0},
		{trace.KindFallback, 0}, {trace.KindDepositSend, 0},
	}
	for _, c := range serverSpans {
		if got := st.SpanCount(c.kind); got != c.want {
			t.Errorf("server %v spans = %d, want %d", c.kind, got, c.want)
		}
	}

	// Histograms observed every invocation and deposit.
	if n := ct.InvokeLatencyNS.Count(); n != 6 {
		t.Errorf("client invoke latency count = %d, want 6", n)
	}
	if n := st.DispatchLatencyNS.Count(); n != 6 {
		t.Errorf("server dispatch latency count = %d, want 6", n)
	}
	if n := ct.DepositBytes.Count(); n != 5 {
		t.Errorf("client deposit bytes count = %d, want 5", n)
	}
	if got := st.DepositBytes.Snapshot().Sum; got != 5*4096 {
		t.Errorf("server deposit bytes sum = %d, want %d", got, 5*4096)
	}
}

// TestTracePropagation asserts the cross-process correlation the trace
// service context exists for: every server-side span joins the trace
// the client minted, and the client's spans for one invocation share
// one trace ID. The payload is above speculateMax; its train rides the
// control write, whose span counts it.
func TestTracePropagation(t *testing.T) {
	p, ct, st := tracedTCPPair(t, true)

	const size = speculateMax + 1024
	buf := zcbuf.Wrap(pattern(size))
	if _, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{buf}); err != nil {
		t.Fatalf("put: %v", err)
	}

	var root trace.Span
	for _, s := range ct.Spans() {
		if s.Kind == trace.KindInvoke {
			root = s
		}
	}
	if !root.Valid() {
		t.Fatal("no client invoke span")
	}
	// Every client span of this invocation carries the root's trace ID,
	// and the wire-level spans are parented on the root span.
	for _, s := range ct.Spans() {
		if s.Trace != root.Trace {
			t.Errorf("client %v span in foreign trace %x (root %x)", s.Kind, s.Trace, root.Trace)
		}
		if s.Kind == trace.KindControlSend {
			if s.Parent != root.Span {
				t.Errorf("control_send parented on %x, want root span %x", s.Parent, root.Span)
			}
			if s.Bytes <= size {
				t.Errorf("control_send bytes = %d, want the %d-byte train and its message", s.Bytes, size)
			}
		}
	}
	// The server joined the same trace via the service context. Its
	// reply_send span is recorded once its write returns, which can be
	// after the client has the reply.
	waitFor(t, "the server reply_send span", func() bool {
		return st.SpanCount(trace.KindReplySend) >= 1
	})
	serverJoined := 0
	for _, s := range st.Spans() {
		if s.Trace == root.Trace {
			serverJoined++
			if s.Parent != root.Span {
				t.Errorf("server %v span parented on %x, want root span %x",
					s.Kind, s.Parent, root.Span)
			}
		}
	}
	// unmarshal, dispatch, reply_send.
	if serverJoined != 3 {
		t.Errorf("server recorded %d spans in the client's trace, want 3", serverJoined)
	}
	if got := st.DepositBytes.Snapshot().Sum; got != size {
		t.Errorf("server deposit bytes = %d, want %d", got, size)
	}
}

// TestUntracedPairRecordsNothing locks the opt-in property: ORBs built
// without a tracer run the identical invocation mix with zero
// observability overhead or state.
func TestUntracedPairRecordsNothing(t *testing.T) {
	p := tcpPair(t, true)
	buf := zcbuf.Wrap(pattern(1024))
	if _, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{buf}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if p.client.Tracer() != nil || p.server.Tracer() != nil {
		t.Fatal("untraced ORB has a tracer")
	}
}

// TestRetryAndFallbackSpans asserts the failure taxonomy: a retried
// invocation produces a retry span per backoff and one invoke root per
// attempt, all in one trace.
func TestRetryAndFallbackSpans(t *testing.T) {
	ct := trace.New(0)
	tr := &transport.TCP{}
	p := newPair(t,
		Options{Transport: tr, ZeroCopy: true},
		Options{Transport: tr, ZeroCopy: true, Tracer: ct,
			Retry: RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Millisecond}})

	// Kill the server so the invocation fails and retries exhaust.
	p.server.Shutdown()
	_, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{pattern(16)})
	if err == nil {
		t.Fatal("invoke against dead server succeeded")
	}

	retries := ct.SpanCount(trace.KindRetry)
	invokes := ct.SpanCount(trace.KindInvoke)
	if retries < 1 {
		t.Fatalf("no retry spans recorded (invokes %d)", invokes)
	}
	if invokes != retries+1 {
		t.Fatalf("invoke spans %d, want retries+1 = %d", invokes, retries+1)
	}
	if ct.RetryBackoffNS.Count() != retries {
		t.Fatalf("backoff histogram count %d, want %d", ct.RetryBackoffNS.Count(), retries)
	}
	// All attempts belong to one trace; attempts are numbered.
	var traceID trace.ID
	maxAttempt := uint16(0)
	for _, s := range ct.Spans() {
		if traceID == 0 {
			traceID = s.Trace
		}
		if s.Trace != traceID {
			t.Fatalf("span %v left the invocation trace", s.Kind)
		}
		if s.Kind == trace.KindInvoke {
			if s.Attempt > maxAttempt {
				maxAttempt = s.Attempt
			}
			if !s.Err {
				t.Fatalf("failed attempt recorded without Err")
			}
		}
	}
	if int64(maxAttempt) != invokes {
		t.Fatalf("max attempt %d, want %d", maxAttempt, invokes)
	}
}
