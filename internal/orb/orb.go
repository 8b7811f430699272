package orb

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/ior"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// DefaultArch returns this process's architecture signature. Direct
// deposit (marshaling bypass) requires the signatures of client and
// server to match — the paper's limited-heterogeneity precondition
// (§2: "we can even count on totally equal systems as a prerequisite
// for the best possible zero-copy operation").
func DefaultArch() string {
	endian := "big"
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		endian = "little"
	}
	return runtime.GOARCH + "/" + endian + "/go"
}

// Options configures an ORB.
type Options struct {
	// Transport supplies connections; defaults to TCP.
	Transport transport.Transport
	// ListenAddr is the control (IIOP) endpoint. Empty means the
	// transport's default ("127.0.0.1:0" for TCP, auto for inproc).
	ListenAddr string
	// DataListenAddr is the shared-memory endpoint (an shm:// URI;
	// empty opens none) a server opens beside its control endpoint: a
	// zero-copy client on the same host with the same architecture dials
	// it as its only connection, a Unix socket that carries GIOP, with a
	// shared-memory ring beside it for the deposits. New refuses any
	// other scheme. It listens through Transport when that is the shm
	// transport (fault-injection tests embed their injector this way),
	// else through a default one. Ignored unless ZeroCopy is set.
	DataListenAddr string
	// ZeroCopy enables the direct-deposit fast path: the ORB advertises
	// deposits in its IORs, and clients of this ORB route eligible
	// payloads around the marshaling engine. On a stream plane a
	// message's deposit train rides its connection's stream; on the shm
	// endpoint it is deposited into the connection's shared-memory ring.
	ZeroCopy bool
	// Collocation short-circuits invocations on objects served by
	// this same ORB, skipping marshaling entirely (§2.1's local-call
	// bypass). Off by default so benchmarks measure the wire path.
	Collocation bool
	// Arch overrides the architecture signature (tests only).
	Arch string
	// HostID overrides the machine identity advertised in ZC-SHM
	// profiles and compared during co-location discovery (tests only).
	// Empty derives it from the OS (machine-id, boot-id, hostname).
	HostID string
	// CallTimeout bounds synchronous invocations; default 30s.
	CallTimeout time.Duration
	// Retry configures automatic re-invocation of calls that fail with
	// a retryable system exception (COMM_FAILURE/TRANSIENT); the zero
	// value disables retries. See RetryPolicy and docs/FAULTS.md.
	Retry RetryPolicy
	// DepositLeaseTTL bounds how long a receiver blocks waiting for an
	// announced deposit payload before reclaiming the buffer and closing
	// what it stalled: the connection for a train on the stream, the
	// connection's shm ring (not the connection) for a ring deposit. 0 or negative
	// uses CallTimeout, so every deposit read is leased. A lease much
	// shorter than CallTimeout frees a stalled stream sooner than the
	// call's own deadline would.
	DepositLeaseTTL time.Duration
	// MaxMessageSize bounds the control-message bodies this ORB
	// accepts (and sends): a header advertising more than this many
	// bytes is answered with a GIOP MessageError instead of driving an
	// allocation. 0 uses giop.MaxMessageSize; values above that cap
	// are clamped to it.
	MaxMessageSize int
	// ConnsPerEndpoint stripes client traffic to one endpoint across N
	// connections (each with its own shared-memory ring when the
	// reference offers one), reducing head-of-line blocking and
	// send-mutex contention under concurrent invokers. 0 or 1 means a
	// single shared connection.
	ConnsPerEndpoint int
	// Engine enables the event-driven connection engine on the server
	// side: inbound control connections are parked in a shared epoll
	// readiness set and serviced by a bounded dispatcher pool, so an
	// idle connection costs one registered fd instead of a goroutine
	// (docs/PERF.md "Event-driven connection engine"). Linux-only; on
	// other platforms — and for connections whose transport cannot
	// expose a raw socket — the ORB falls back to the legacy
	// goroutine-per-connection read loop.
	Engine bool
	// MaxInFlight caps concurrently dispatched requests across all
	// server connections. Requests beyond the cap are shed with a
	// TRANSIENT system exception (minor code shedMinor) instead of
	// queuing without bound; retry-policy clients back off and retry.
	// 0 or negative means unlimited.
	MaxInFlight int
	// MaxConns caps accepted server connections; the accept loop
	// pauses (leaving further connections in the kernel backlog) until
	// a slot frees. 0 or negative means unlimited.
	MaxConns int
	// Tracer, if set, records per-invocation spans and histograms for
	// every request this ORB sends or serves (docs/OBSERVABILITY.md).
	// The trace context travels in a GIOP service context, so both
	// sides of a call correlate under one trace ID; nil disables
	// tracing and leaves the wire format byte-identical to an untraced
	// ORB.
	Tracer *trace.Tracer
}

// maxMessageSize resolves the effective control-message bound.
func (o *ORB) maxMessageSize() int {
	if o.opts.MaxMessageSize <= 0 || o.opts.MaxMessageSize > giop.MaxMessageSize {
		return giop.MaxMessageSize
	}
	return o.opts.MaxMessageSize
}

// connStripes resolves the effective connection striping factor.
func (o *ORB) connStripes() int {
	if o.opts.ConnsPerEndpoint <= 1 {
		return 1
	}
	return o.opts.ConnsPerEndpoint
}

// shedMinor is the TRANSIENT minor code carried by admission-control
// rejections, so clients (and tests) can distinguish a shed from other
// transient failures.
const shedMinor = 0x5a43_0001 // "ZC" shed

// acquireSlot claims one in-flight dispatch slot, honoring the
// admission cap. The gauge is maintained even when the cap is off so
// /metrics always reports live dispatch concurrency.
func (o *ORB) acquireSlot() bool {
	max := int64(o.opts.MaxInFlight)
	if max <= 0 {
		o.stats.InFlight.Add(1)
		return true
	}
	for {
		n := o.stats.InFlight.Load()
		if n >= max {
			return false
		}
		if o.stats.InFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// releaseSlot returns an in-flight dispatch slot.
func (o *ORB) releaseSlot() { o.stats.InFlight.Add(-1) }

// bodyFreeSlots sizes the per-ORB body free list.
const bodyFreeSlots = 64

// largeFreeSlots sizes largeFree: a 1 MiB standard call holds two large
// buffers on the server (its body and its in-argument) and one on a
// client reading a large reply, so a few slots keep one call in flight
// per direction warm without pinning more than a few megabytes.
const largeFreeSlots = 4

// largeFree is the free list for buffers over speculateMax (bulk
// standard-path bodies and in-arguments), shared by every ORB in the
// process like a sync.Pool: a fresh ORB's first bulk call then reuses
// warm memory instead of paying for a fresh, zeroed megabyte.
var largeFree = make(chan []byte, largeFreeSlots)

// getBody returns a body buffer of length n, reusing free-list storage
// when its capacity suffices. A body over speculateMax comes from
// largeFree, any other from the ORB's own list. A free body too small
// for n goes back to the ORB's list for the next small message, but is
// dropped from largeFree: its few slots would otherwise stay clogged
// by buffers of a bulk size no longer in use, and every larger message
// would miss. The free lists are buffered channels rather than
// sync.Pools so recycling a slice never heap-allocates a slice header
// on the hot path.
func (o *ORB) getBody(n int) []byte {
	large := n > speculateMax
	free := o.bodyFree
	if large {
		free = largeFree
	}
	select {
	case b := <-free:
		if cap(b) >= n {
			o.stats.BodyReuses.Add(1)
			return b[:n]
		}
		if !large {
			o.putBody(b)
		}
	default:
	}
	o.stats.BodyAllocs.Add(1)
	if large {
		// make clears the fresh memory, a pass over it as costly as the
		// copy that fills it; only a reused body avoids that pass.
		return make([]byte, n)
	}
	// Keep the allocator's whole size class as capacity: a body reused
	// for a predicted message then also holds one a few bytes longer,
	// so the framer's miss leaves it in place (framer.miss).
	return append([]byte(nil), make([]byte, n)...)
}

// putBody returns a body buffer to its free list (dropping it when the
// list is full or the buffer is outsized).
func (o *ORB) putBody(b []byte) {
	if b == nil || cap(b) > cdr.PoolMax {
		return
	}
	free := o.bodyFree
	if cap(b) > speculateMax {
		free = largeFree
	}
	select {
	case free <- b[:0]:
	default:
	}
}

// Stats counts ORB activity; all fields are safe for concurrent reads.
type Stats struct {
	// RequestsSent counts client requests issued by this ORB.
	RequestsSent atomic.Int64
	// RepliesReceived counts replies delivered to waiting invokers.
	RepliesReceived atomic.Int64
	// RequestsServed counts requests dispatched to local servants.
	RequestsServed atomic.Int64
	// BodyAllocs and BodyReuses count control-message body buffers
	// (and the octet-sequence in-argument storage that shares their
	// free lists) freshly allocated vs. recycled; at steady state
	// reuses should dominate (the allocation-free hot path).
	BodyAllocs atomic.Int64
	BodyReuses atomic.Int64
	// PayloadCopies and PayloadCopyBytes count user-space copies of
	// bulk parameter bytes made by the marshaling engine (the copies
	// the zero-copy path eliminates) and by the framer (a speculation
	// miss, or growing a foreign fragment train's body).
	PayloadCopies    atomic.Int64
	PayloadCopyBytes atomic.Int64
	// SpeculationHits and SpeculationMisses judge the framer's
	// speculative reads: a message whose body and inline-train sizes
	// matched the prediction (one readv put every byte in its final
	// buffer) vs one that differed. A miss that had already read bytes
	// into the wrong region moves them with one copy, counted in
	// PayloadCopies/PayloadCopyBytes.
	SpeculationHits   atomic.Int64
	SpeculationMisses atomic.Int64
	// DepositsSent/DepositsReceived count direct-deposit transfers.
	DepositsSent     atomic.Int64
	DepositsReceived atomic.Int64
	DepositBytesSent atomic.Int64
	DepositBytesRecv atomic.Int64
	// ZCFallbacks counts ZC-typed parameters that had to take the
	// standard path (deposits not negotiated, or the shm ring down).
	ZCFallbacks atomic.Int64
	// Collocated counts invocations short-circuited locally.
	Collocated atomic.Int64
	// CancelsSent counts GIOP CancelRequests issued after timeouts.
	CancelsSent atomic.Int64
	// Retries counts re-invocations performed by the retry policy.
	Retries atomic.Int64
	// Timeouts counts calls abandoned by the reply-wait deadline.
	Timeouts atomic.Int64
	// DataChanFallbacks counts invocations degraded from the ZC-deposit
	// path to the standard marshaled path after an shm ring failure.
	DataChanFallbacks atomic.Int64
	// DepositAborts counts inbound bulk transfers that failed mid-read
	// (the receiver degraded instead of closing the connection).
	DepositAborts atomic.Int64
	// LeaseExpiries counts deposit-buffer leases reclaimed by the
	// sweeper after an aborted or stalled transfer.
	LeaseExpiries atomic.Int64
	// ShmDeposits/ShmDepositBytes count payloads deposited directly
	// into a shared-memory ring (the subset of DepositsSent that never
	// crossed a socket); ShmClaims counts the matching zero-copy claims
	// on the receive side.
	ShmDeposits     atomic.Int64
	ShmDepositBytes atomic.Int64
	ShmClaims       atomic.Int64
	// ShmMisses counts references that advertised a ZC-SHM profile this
	// client could not use (host or architecture mismatch, or shared
	// memory unsupported on this platform).
	ShmMisses atomic.Int64
	// GatherDeposits counts multi-segment deposit trains (two or more
	// payload blocks coalesced into one write);
	// GatherSegments counts the segments inside them.
	GatherDeposits atomic.Int64
	GatherSegments atomic.Int64
	// GatherScatters counts multi-segment trains scattered into
	// per-buffer claims on the receive side.
	GatherScatters atomic.Int64
	// EngineConns gauges connections currently parked in the event
	// engine's readiness set (server side, engine tier only).
	EngineConns atomic.Int64
	// EngineWakeups counts epoll waits that returned at least one ready
	// connection; EngineWakeups≪messages handled means wakeup batching
	// is amortizing poller trips.
	EngineWakeups atomic.Int64
	// InFlight gauges requests currently dispatched to servants (both
	// tiers); the admission cap (Options.MaxInFlight) bounds it.
	InFlight atomic.Int64
	// ShedRequests counts requests rejected by admission control with
	// a TRANSIENT system exception instead of being dispatched.
	ShedRequests atomic.Int64
	// AcceptPauses counts times the accept loop paused on the MaxConns
	// cap (backpressure pushed into the kernel listen backlog).
	AcceptPauses atomic.Int64
}

// ORB is an Object Request Broker: object adapter, client connection
// cache, and — when enabled — the zero-copy deposit machinery.
type ORB struct {
	opts   Options
	tr     transport.Transport
	pool   *zcbuf.Pool
	arch   string
	hostID string
	stats  Stats
	tracer *trace.Tracer

	ctrlLis  transport.Listener
	shmLis   transport.Listener // the shm endpoint's listener, if any
	ctrlHost string
	ctrlPort uint16

	mu       sync.Mutex
	servants map[string]Servant
	// extraComps holds per-object IOR components registered through
	// ActivateWithComponents (e.g. the ZC-SHM-BCAST profile an event
	// channel advertises); merged into every reference minted for the
	// key. Lazily allocated.
	extraComps  map[string][]ior.TaggedComponent
	clientConns map[string]*conn
	serverConns map[*conn]struct{}
	closed      bool
	// acceptCond parks the accept loop while serverConns is at the
	// MaxConns cap; removeServerConn and Shutdown signal it.
	acceptCond *sync.Cond

	// engine is the event-driven connection engine (nil when disabled,
	// unsupported on this platform, or failed to initialize).
	engine *engine

	autoSeq atomic.Uint64
	wg      sync.WaitGroup
	done    chan struct{}

	// handoff passes a request to a parked legacy-tier handler
	// (dispatchRequest, runHandler); idleHandlers counts the parked ones.
	handoff      chan *request
	idleHandlers atomic.Int32

	// leases tracks deposit buffers checked out to in-progress bulk
	// transfers; the sweeper reclaims them when a transfer aborts.
	leases zcbuf.LeaseTable

	bodyFree chan []byte
}

// New creates an ORB, binds its listeners, and starts serving
// immediately. Call Shutdown to release resources.
func New(opts Options) (*ORB, error) {
	o := &ORB{
		opts:        opts,
		tr:          opts.Transport,
		pool:        &zcbuf.Pool{},
		arch:        opts.Arch,
		servants:    make(map[string]Servant),
		clientConns: make(map[string]*conn),
		serverConns: make(map[*conn]struct{}),
		bodyFree:    make(chan []byte, bodyFreeSlots),
		done:        make(chan struct{}),
		handoff:     make(chan *request),
	}
	if o.tr == nil {
		o.tr = &transport.TCP{}
	}
	if o.arch == "" {
		o.arch = DefaultArch()
	}
	o.hostID = opts.HostID
	if o.hostID == "" {
		o.hostID = defaultHostID()
	}
	if o.opts.CallTimeout <= 0 {
		o.opts.CallTimeout = 30 * time.Second
	}
	o.tracer = opts.Tracer
	if o.tracer != nil {
		// Lease lifecycle events become standalone spans: an expiry has
		// no request trace to attach to (the sweeper reclaims it after
		// the sender vanished), so it gets its own single-span trace.
		tr := o.tracer
		o.leases.Observer = func(ev zcbuf.LeaseEvent, bytes int) {
			if ev != zcbuf.LeaseExpired {
				return
			}
			tr.Record(trace.Span{
				Trace: tr.NewID(), Kind: trace.KindLease, Op: "lease_expire",
				Err: true, Start: trace.Now(), Bytes: int64(bytes),
			})
		}
	}
	o.acceptCond = sync.NewCond(&o.mu)

	// The second endpoint serves only the shared-memory plane: a stream
	// plane carries its deposit trains on the control connection, so a
	// stream endpoint is refused here, before anything starts.
	shmAddr := ""
	if opts.ZeroCopy && opts.DataListenAddr != "" {
		scheme, rest := transport.SplitScheme(opts.DataListenAddr)
		if scheme != "shm" {
			return nil, fmt.Errorf("orb: data listener %q: the second endpoint serves only shm; "+
				"stream planes carry deposits on the control connection", opts.DataListenAddr)
		}
		shmAddr = rest
	}

	// Listen addresses accept scheme URIs (tcp://, inproc://, shm://):
	// a scheme different from the configured transport's selects the
	// matching transport for that listener, so a TCP control plane can
	// carry an shm:// data plane on the same ORB.
	addr := opts.ListenAddr
	if scheme, rest := transport.SplitScheme(addr); scheme != "" {
		if scheme != o.tr.Name() {
			t, _, ferr := transport.FromAddr(addr, nil)
			if ferr != nil {
				return nil, fmt.Errorf("orb: control listener: %w", ferr)
			}
			o.tr = t
		}
		addr = rest
	}
	if addr == "" && o.tr.Name() == "tcp" {
		addr = "127.0.0.1:0"
	}
	lis, err := o.tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("orb: control listener: %w", err)
	}
	o.ctrlLis = lis
	o.ctrlHost, o.ctrlPort = splitEndpoint(lis.Addr())

	if shmAddr != "" {
		slis, err := o.shmTransport().Listen(shmAddr)
		if err != nil {
			_ = lis.Close()
			return nil, fmt.Errorf("orb: data listener: %w", err)
		}
		o.shmLis = slis
		o.wg.Add(1)
		go o.accept(slis)
	}

	// The engine starts only once every listener is open, so no error
	// return above leaves its dispatchers running. Without an engine the
	// ORB degrades to the goroutine-per-connection tier — the stub path
	// on non-Linux platforms, and the safety net when epoll setup fails.
	if opts.Engine {
		if eng, err := newEngine(o); err == nil {
			o.engine = eng
		}
	}
	o.wg.Add(1)
	go o.accept(lis)
	if opts.ZeroCopy {
		o.wg.Add(1)
		go o.sweepLoop()
	}
	return o, nil
}

// leaseTTL resolves the effective deposit-lease lifetime, which is
// always positive.
func (o *ORB) leaseTTL() time.Duration {
	if o.opts.DepositLeaseTTL <= 0 {
		return o.opts.CallTimeout
	}
	return o.opts.DepositLeaseTTL
}

// sweepLoop periodically expires overdue deposit leases (receiver
// hygiene: an aborted bulk transfer must return its pooled memory).
func (o *ORB) sweepLoop() {
	defer o.wg.Done()
	iv := o.leaseTTL() / 4
	if iv < 5*time.Millisecond {
		iv = 5 * time.Millisecond
	}
	if iv > time.Second {
		iv = time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-o.done:
			return
		case now := <-t.C:
			if n := o.leases.Sweep(now); n > 0 {
				o.stats.LeaseExpiries.Add(int64(n))
			}
		}
	}
}

// shmTransport is the transport of the shm plane: the ORB's own when
// that is the shm transport, else a default one.
func (o *ORB) shmTransport() transport.Transport {
	if o.tr.Name() == "shm" {
		return o.tr
	}
	return &transport.SHM{}
}

// splitEndpoint separates a transport address into the host and port
// stored in IIOP profiles. Non-TCP transports use the whole address as
// the host with port 0.
func splitEndpoint(addr string) (string, uint16) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return addr, 0
	}
	p, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return addr, 0
	}
	return host, uint16(p)
}

// dialAddr reassembles a profile endpoint into a transport address.
func dialAddr(host string, port uint16) string {
	if port == 0 {
		return host
	}
	return net.JoinHostPort(host, strconv.Itoa(int(port)))
}

// defaultHostID derives a stable machine identity for shared-memory
// co-location discovery: two ORBs see the same ID exactly when they
// can map the same shared memory. machine-id survives reboots; boot-id
// is the fallback on stripped-down systems; the hostname is the last
// resort. It is read once per process, not once per ORB.
var defaultHostID = sync.OnceValue(func() string {
	for _, p := range []string{"/etc/machine-id", "/proc/sys/kernel/random/boot_id"} {
		if b, err := os.ReadFile(p); err == nil {
			if id := strings.TrimSpace(string(b)); id != "" {
				return id
			}
		}
	}
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "localhost"
})

// Arch returns the ORB's architecture signature.
func (o *ORB) Arch() string { return o.arch }

// HostID returns the machine identity used for co-location discovery.
func (o *ORB) HostID() string { return o.hostID }

// Stats returns the ORB's counters.
func (o *ORB) Stats() *Stats { return &o.stats }

// Tracer returns the ORB's tracer (nil when tracing is disabled).
func (o *ORB) Tracer() *trace.Tracer { return o.tracer }

// RegisterMetrics exposes the ORB's counters on a debug exporter as
// Prometheus counters, alongside the tracer's histograms. Counter
// functions read the live atomics at scrape time.
func (o *ORB) RegisterMetrics(x *trace.Exporter) {
	s := &o.stats
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"requests_sent_total", "Client requests issued.", &s.RequestsSent},
		{"replies_received_total", "Replies delivered to invokers.", &s.RepliesReceived},
		{"requests_served_total", "Requests dispatched to servants.", &s.RequestsServed},
		{"payload_copies_total", "User-space payload copies made by the marshaling engine.", &s.PayloadCopies},
		{"payload_copy_bytes_total", "Bytes copied by the marshaling engine.", &s.PayloadCopyBytes},
		{"speculation_hits_total", "Speculative control reads whose layout prediction held.", &s.SpeculationHits},
		{"speculation_misses_total", "Speculative control reads whose layout prediction missed.", &s.SpeculationMisses},
		{"deposits_sent_total", "Direct-deposit transfers sent.", &s.DepositsSent},
		{"deposits_received_total", "Direct-deposit transfers received.", &s.DepositsReceived},
		{"deposit_bytes_sent_total", "Direct-deposit bytes sent.", &s.DepositBytesSent},
		{"deposit_bytes_recv_total", "Direct-deposit bytes received.", &s.DepositBytesRecv},
		{"zc_fallbacks_total", "ZC parameters marshaled on the standard path.", &s.ZCFallbacks},
		{"retries_total", "Retry-policy re-invocations.", &s.Retries},
		{"timeouts_total", "Calls abandoned by the reply deadline.", &s.Timeouts},
		{"data_chan_fallbacks_total", "Invocations degraded to the marshaled path.", &s.DataChanFallbacks},
		{"deposit_aborts_total", "Inbound bulk transfers that failed mid-read.", &s.DepositAborts},
		{"lease_expiries_total", "Deposit-buffer leases reclaimed by the sweeper.", &s.LeaseExpiries},
		{"body_allocs_total", "Control-message bodies freshly allocated.", &s.BodyAllocs},
		{"body_reuses_total", "Control-message bodies recycled from the free list.", &s.BodyReuses},
		{"shm_deposits_total", "Payloads deposited through the shared-memory plane.", &s.ShmDeposits},
		{"shm_deposit_bytes_total", "Bytes deposited through the shared-memory plane.", &s.ShmDepositBytes},
		{"shm_claims_total", "Zero-copy shared-memory claims on the receive side.", &s.ShmClaims},
		{"shm_misses_total", "ZC-SHM profiles unusable by this client.", &s.ShmMisses},
		{"gather_deposits_total", "Multi-segment deposit trains sent.", &s.GatherDeposits},
		{"gather_segments_total", "Segments inside multi-segment deposit trains.", &s.GatherSegments},
		{"gather_scatters_total", "Multi-segment trains scattered on the receive side.", &s.GatherScatters},
		{"engine_wakeups_total", "Epoll waits that returned ready connections.", &s.EngineWakeups},
		{"shed_requests_total", "Requests rejected by admission control (TRANSIENT).", &s.ShedRequests},
		{"accept_pauses_total", "Accept-loop pauses at the MaxConns cap.", &s.AcceptPauses},
	} {
		x.AddCounter(c.name, c.help, c.v.Load)
	}
	for _, g := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"engine_conns", "Connections parked in the event engine.", &s.EngineConns},
		{"inflight_requests", "Requests currently dispatched to servants.", &s.InFlight},
	} {
		x.AddGauge(g.name, g.help, g.v.Load)
	}
}

// Pool returns the deposit buffer pool.
func (o *ORB) Pool() *zcbuf.Pool { return o.pool }

// Addr returns the control endpoint address.
func (o *ORB) Addr() string { return o.ctrlLis.Addr() }

// ServerConns reports the number of live inbound control connections
// (both tiers: engine-parked and goroutine-served). Scale tests use it
// to wait until the accept loop has absorbed a connection herd.
func (o *ORB) ServerConns() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.serverConns)
}

// Activate registers servant under the given object key and returns an
// object reference for it. Keys are arbitrary non-empty strings.
func (o *ORB) Activate(key string, s Servant) (*ObjectRef, error) {
	return o.ActivateWithComponents(key, s)
}

// ActivateWithComponents registers a servant like Activate and
// additionally attaches tagged components to every reference this ORB
// mints for the key — the hook a service uses to advertise its own
// data plane in the IOR (the event channel's ZC-SHM-BCAST profile
// rides here). The components live until Deactivate.
func (o *ORB) ActivateWithComponents(key string, s Servant, comps ...ior.TaggedComponent) (*ObjectRef, error) {
	if key == "" {
		return nil, fmt.Errorf("orb: empty object key")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, fmt.Errorf("orb: shut down")
	}
	if _, dup := o.servants[key]; dup {
		return nil, fmt.Errorf("orb: object key %q already active", key)
	}
	o.servants[key] = s
	if len(comps) > 0 {
		if o.extraComps == nil {
			o.extraComps = make(map[string][]ior.TaggedComponent)
		}
		o.extraComps[key] = append([]ior.TaggedComponent(nil), comps...)
	}
	return o.refForLocked(key, s.Interface().RepoID), nil
}

// Deactivate removes the servant registered under key.
func (o *ORB) Deactivate(key string) {
	o.mu.Lock()
	delete(o.servants, key)
	delete(o.extraComps, key)
	o.mu.Unlock()
}

// refForLocked builds the ObjectRef/IOR for a local key.
func (o *ORB) refForLocked(key, repoID string) *ObjectRef {
	var comps []ior.TaggedComponent
	switch {
	case !o.opts.ZeroCopy:
	case o.shmLis != nil:
		// Shared-memory plane: advertise the ZC-SHM profile so only
		// co-located, architecture-matched clients dial its endpoint;
		// everyone else dials the control endpoint and marshals.
		comps = append(comps, ior.ZCShm{
			Arch: o.arch, HostID: o.hostID, Path: o.shmLis.Addr(),
		}.Encode())
	default:
		// Deposits ride the control stream: the component names the
		// control endpoint, which a client never dials twice.
		comps = append(comps, ior.ZCDeposit{
			Arch: o.arch, Host: o.ctrlHost, Port: o.ctrlPort,
		}.Encode())
	}
	comps = append(comps, o.extraComps[key]...)
	ref := ior.NewIIOP(repoID, o.ctrlHost, o.ctrlPort, []byte(key), comps...)
	return &ObjectRef{orb: o, ior: ref}
}

// ActivateAuto registers servant under a fresh unique key and returns
// its reference (implicit activation).
func (o *ORB) ActivateAuto(s Servant) (*ObjectRef, error) {
	n := o.autoSeq.Add(1)
	key := fmt.Sprintf("auto/%s/%d", s.Interface().Name, n)
	return o.Activate(key, s)
}

// servant looks up a locally activated servant.
func (o *ORB) servant(key string) (Servant, bool) {
	o.mu.Lock()
	s, ok := o.servants[key]
	o.mu.Unlock()
	return s, ok
}

// StringToObject converts a stringified IOR or corbaloc URL into an
// object reference bound to this ORB.
func (o *ORB) StringToObject(s string) (*ObjectRef, error) {
	r, err := ior.Parse(s)
	if err != nil {
		return nil, err
	}
	return &ObjectRef{orb: o, ior: r}, nil
}

// ObjectFromIOR wraps an already-decoded IOR.
func (o *ORB) ObjectFromIOR(r ior.IOR) *ObjectRef {
	return &ObjectRef{orb: o, ior: r}
}

// accept accepts inbound IIOP connections on lis, the control or the
// shm endpoint. Each is either registered with the event engine (idle
// cost: one epoll entry) or handed a legacy reader goroutine; an shm
// connection, whose ring waits the engine cannot see, always takes the
// latter. When MaxConns is set, the loop pauses at the cap (the two
// endpoints share it) — backpressure lands in the kernel listen backlog
// instead of unbounded per-connection state.
func (o *ORB) accept(lis transport.Listener) {
	defer o.wg.Done()
	for {
		o.waitAcceptSlot()
		tc, err := lis.Accept()
		if err != nil {
			return
		}
		c := newConn(o, tc, true)
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			_ = tc.Close()
			return
		}
		o.serverConns[c] = struct{}{}
		o.mu.Unlock()
		if o.engine != nil && o.engine.add(c) {
			continue
		}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			c.readLoop()
			o.removeServerConn(c)
		}()
	}
}

// waitAcceptSlot blocks while the server connection count sits at the
// MaxConns cap (no-op when unlimited or shut down).
func (o *ORB) waitAcceptSlot() {
	max := o.opts.MaxConns
	if max <= 0 {
		return
	}
	o.mu.Lock()
	paused := false
	for !o.closed && len(o.serverConns) >= max {
		if !paused {
			paused = true
			o.stats.AcceptPauses.Add(1)
		}
		o.acceptCond.Wait()
	}
	o.mu.Unlock()
}

// removeServerConn retires a server connection's registry entry and
// wakes an accept loop paused on the MaxConns cap.
func (o *ORB) removeServerConn(c *conn) {
	o.mu.Lock()
	if _, ok := o.serverConns[c]; ok {
		delete(o.serverConns, c)
		o.acceptCond.Signal()
	}
	o.mu.Unlock()
}

// dialConn returns (creating if needed) the client connection to the
// given control endpoint. zc marks a connection whose messages may
// carry deposits; ring, when zc is set and ring is not empty, is the
// peer's shm endpoint, dialled in place of the control endpoint and
// promoted so a ring pair rides beside its stream. stripe selects one
// of the ConnsPerEndpoint connections to the endpoint (0 when striping
// is off). Hot-path callers cache the result per ObjectRef; this
// function only runs on cache misses.
func (o *ORB) dialConn(ctrlAddr string, zc bool, ring string, stripe int) (*conn, error) {
	tr, addr := o.tr, ctrlAddr
	if zc && ring != "" {
		tr, addr = o.shmTransport(), ring
	}
	key := addr
	if zc {
		key += "|zc"
	}
	if stripe > 0 {
		key += "#" + strconv.Itoa(stripe)
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, fmt.Errorf("orb: shut down")
	}
	if c, ok := o.clientConns[key]; ok {
		if c.healthy() {
			o.mu.Unlock()
			return c, nil
		}
		// The cached connection died (e.g. its control stream tore);
		// evict it so this call dials fresh.
		delete(o.clientConns, key)
	}
	o.mu.Unlock()

	tc, err := tr.Dial(addr)
	if err != nil {
		return nil, &SystemException{Name: "COMM_FAILURE", Completed: CompletedNo}
	}
	c := newConn(o, tc, false)
	c.zc = zc
	if zc && ring != "" && (c.ring == nil || c.ring.Promote() != nil) {
		// A connection to the shm endpoint without its ring marshals
		// the standard way, as if the ring had died.
		c.ringDown.Store(true)
	}

	o.mu.Lock()
	if o.closed {
		// Shutdown ran while this dial was in flight and has already
		// snapshotted the connections it closes; registering c now would
		// leave its reader running and Shutdown waiting on it forever.
		o.mu.Unlock()
		c.close(fmt.Errorf("orb: shut down"))
		return nil, fmt.Errorf("orb: shut down")
	}
	if exist, ok := o.clientConns[key]; ok {
		// Lost a race; keep the established one.
		o.mu.Unlock()
		c.close(nil)
		return exist, nil
	}
	o.clientConns[key] = c
	o.mu.Unlock()

	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		c.readLoop()
		o.mu.Lock()
		if o.clientConns[key] == c {
			delete(o.clientConns, key)
		}
		o.mu.Unlock()
	}()
	return c, nil
}

// Shutdown closes listeners and all connections and waits for
// background goroutines to drain.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	conns := make([]*conn, 0, len(o.clientConns)+len(o.serverConns))
	for _, c := range o.clientConns {
		conns = append(conns, c)
	}
	for c := range o.serverConns {
		conns = append(conns, c)
	}
	o.mu.Unlock()

	close(o.done)
	o.acceptCond.Broadcast()
	_ = o.ctrlLis.Close()
	if o.shmLis != nil {
		_ = o.shmLis.Close()
	}
	for _, c := range conns {
		c.close(fmt.Errorf("orb: shut down"))
	}
	if o.engine != nil {
		o.engine.stop()
	}
	o.wg.Wait()
}
