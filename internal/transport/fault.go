// Fault injection: a transport wrapper that deterministically breaks
// connections at configurable points in the GIOP and ZC-deposit state
// machines. The chaos suite (internal/orb/chaos_test.go) drives the ORB
// through these faults to prove the retry/deadline/fallback machinery;
// the ttcp -chaos flag applies them to a live benchmark run.
//
// Faults are described by Rules and decided by a FaultInjector seeded
// with a fixed value, so a given schedule of transport events produces
// the same schedule of faults. Connections classify themselves lazily
// from the first bytes they carry — "ZCDC" (the deposit preamble) marks
// a data channel, anything else (normally a GIOP header) the control
// stream — so rules can target the control path, the deposit path, or
// both.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind selects what the injected fault does to the connection.
type FaultKind int

// Fault kinds.
const (
	// FaultReset closes the underlying connection and fails the
	// operation, like a TCP RST.
	FaultReset FaultKind = iota + 1
	// FaultTruncate lets TruncateAt bytes through, then closes: the
	// byte-level cut that desyncs a framed stream.
	FaultTruncate
	// FaultStall sleeps Delay before performing the operation.
	FaultStall
	// FaultSlow performs writes in Chunk-sized pieces with Delay
	// between them (reads just sleep Delay once).
	FaultSlow
	// FaultRefuse fails the operation without touching the connection
	// state of previously established conns; on Dial it models a
	// refused connection.
	FaultRefuse
	// FaultPeerKill simulates the shared-memory peer process dying:
	// the Unix control socket is torn down and the connection's dead
	// flag raised, so ring waiters on both sides unblock with
	// peer-dead errors.
	FaultPeerKill
	// FaultRingStall simulates ring credit exhaustion: the operation
	// fails with shmem.ErrRingStalled without touching the ring, which
	// is the ORB's trigger for degrading to the marshaled path.
	FaultRingStall
	// FaultSlotCorrupt arms the producer's corrupt-next hook: the next
	// published record carries a wrong sequence tag and the consumer
	// reports it as corrupt.
	FaultSlotCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultStall:
		return "stall"
	case FaultSlow:
		return "slow"
	case FaultRefuse:
		return "refuse"
	case FaultPeerKill:
		return "peer-kill"
	case FaultRingStall:
		return "ring-stall"
	case FaultSlotCorrupt:
		return "slot-corrupt"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultOp names the transport operation a rule applies to.
type FaultOp int

// Fault operations.
const (
	OpDial FaultOp = iota + 1
	OpRead
	OpWrite
)

func (op FaultOp) String() string {
	switch op {
	case OpDial:
		return "dial"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(op))
	}
}

// ConnClass classifies a connection by its role in the split
// control/data architecture.
type ConnClass int

// Connection classes. A connection's class is unknown until its first
// payload-carrying operation; class-specific rules do not match
// unclassified events. Dial events are always classless, so OpDial
// rules must use ClassAny.
const (
	ClassAny ConnClass = iota
	ClassControl
	ClassData
	// ClassShm marks ring operations of the shared-memory data plane.
	// SHM connections consult their injector directly (wrapping them in
	// Faulty would hide the DirectReader claim capability), classifying
	// ring deposits/claims as ClassShm and stream bytes as ClassControl.
	ClassShm
)

func (c ConnClass) String() string {
	switch c {
	case ClassAny:
		return "any"
	case ClassControl:
		return "ctrl"
	case ClassData:
		return "data"
	case ClassShm:
		return "shm"
	default:
		return fmt.Sprintf("ConnClass(%d)", int(c))
	}
}

// Rule describes one fault: which operation and connection class it
// targets, when it triggers, and what it does.
type Rule struct {
	Op    FaultOp
	Kind  FaultKind
	Class ConnClass
	// Nth triggers the fault on the Nth matching event (1-based),
	// counted across all connections of the transport — fully
	// deterministic. 0 means trigger probabilistically via Prob.
	Nth int
	// Prob triggers the fault on each matching event with this
	// probability, drawn from the injector's seeded generator. Ignored
	// when Nth > 0.
	Prob float64
	// Count bounds how many times the rule fires: 0 means once for Nth
	// rules and unlimited for Prob rules.
	Count int
	// TruncateAt is the number of bytes a Truncate lets through before
	// cutting the stream (0 cuts immediately).
	TruncateAt int
	// Delay is the Stall pause, or the inter-chunk pause for Slow.
	Delay time.Duration
	// Chunk is the Slow write chunk size (default 1024).
	Chunk int
}

// ruleState pairs a rule with its trigger bookkeeping.
type ruleState struct {
	Rule
	seen  int // matching events observed
	fired int // times the fault actually triggered
}

// FaultInjector decides, reproducibly from a seed, which transport
// events fail and how. One injector is shared by every connection of a
// Faulty transport; its event counters are global, so "the 3rd data
// write" means the 3rd across the whole process.
type FaultInjector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	log   []string
	fired atomic.Int64
}

// NewFaultInjector returns an injector whose probabilistic decisions
// derive from seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{rng: rand.New(rand.NewSource(seed))}
}

// Add registers a rule and returns the injector for chaining.
func (inj *FaultInjector) Add(r Rule) *FaultInjector {
	inj.mu.Lock()
	inj.rules = append(inj.rules, &ruleState{Rule: r})
	inj.mu.Unlock()
	return inj
}

// Fired returns how many faults have triggered so far.
func (inj *FaultInjector) Fired() int64 { return inj.fired.Load() }

// Log returns a copy of the fired-fault log, one line per fault, for
// reproducing a failure schedule.
func (inj *FaultInjector) Log() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]string, len(inj.log))
	copy(out, inj.log)
	return out
}

// decide records one matching event for every applicable rule and
// returns the first rule that triggers, or nil. The returned snapshot
// is a value copy, safe to read without the injector lock.
func (inj *FaultInjector) decide(op FaultOp, class ConnClass) *Rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var hit *ruleState
	for _, r := range inj.rules {
		if r.Op != op {
			continue
		}
		if r.Class != ClassAny && r.Class != class {
			continue
		}
		r.seen++
		if hit != nil {
			continue // keep counting events for later rules
		}
		limit := r.Count
		if limit == 0 {
			if r.Nth > 0 {
				limit = 1
			} else {
				limit = int(^uint(0) >> 1)
			}
		}
		if r.fired >= limit {
			continue
		}
		trigger := false
		if r.Nth > 0 {
			trigger = r.seen >= r.Nth
		} else if r.Prob > 0 {
			trigger = inj.rng.Float64() < r.Prob
		}
		if trigger {
			hit = r
		}
	}
	if hit == nil {
		return nil
	}
	hit.fired++
	inj.fired.Add(1)
	inj.log = append(inj.log, fmt.Sprintf("%s %s #%d: %s", hit.Op, class, hit.seen, hit.Kind))
	rc := hit.Rule
	return &rc
}

// ---------------------------------------------------------------------------
// Faulty transport

// Faulty wraps another transport and injects the faults decided by Inj
// into every connection it creates (dialed or accepted).
type Faulty struct {
	Inner Transport
	Inj   *FaultInjector
}

// Name implements Transport.
func (t *Faulty) Name() string { return "faulty(" + t.Inner.Name() + ")" }

// Listen implements Transport.
func (t *Faulty) Listen(addr string) (Listener, error) {
	l, err := t.Inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultyListener{l: l, inj: t.Inj}, nil
}

// Dial implements Transport. Dial events are classless: only ClassAny
// rules match.
func (t *Faulty) Dial(addr string) (Conn, error) {
	if r := t.Inj.decide(OpDial, ClassAny); r != nil {
		switch r.Kind {
		case FaultStall, FaultSlow:
			time.Sleep(r.Delay)
		default:
			return nil, fmt.Errorf("faultconn: dial %s: injected %s", addr, r.Kind)
		}
	}
	c, err := t.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultyConn{inner: c, inj: t.Inj}, nil
}

type faultyListener struct {
	l   Listener
	inj *FaultInjector
}

func (l *faultyListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return &faultyConn{inner: c, inj: l.inj}, nil
}

func (l *faultyListener) Close() error { return l.l.Close() }
func (l *faultyListener) Addr() string { return l.l.Addr() }

// faultyConn applies injector decisions to one connection. The class is
// detected from the first bytes written or received: the ZC data
// preamble ("ZCDC") marks a data channel, anything else the control
// stream.
type faultyConn struct {
	inner Conn
	inj   *FaultInjector
	class atomic.Int32 // 0 = unknown, else ConnClass
}

func (c *faultyConn) classify(p []byte) ConnClass {
	if cl := ConnClass(c.class.Load()); cl != ClassAny {
		return cl
	}
	if len(p) < 4 {
		return ClassAny
	}
	cl := ClassControl
	if p[0] == 'Z' && p[1] == 'C' && p[2] == 'D' && p[3] == 'C' {
		cl = ClassData
	}
	c.class.CompareAndSwap(0, int32(cl))
	return ConnClass(c.class.Load())
}

// fail closes the underlying connection and returns the injected error.
func (c *faultyConn) fail(kind FaultKind, op string) error {
	_ = c.inner.Close()
	return fmt.Errorf("faultconn: injected %s on %s", kind, op)
}

func (c *faultyConn) Write(p []byte) (int, error) {
	cl := c.classify(p)
	if r := c.inj.decide(OpWrite, cl); r != nil {
		switch r.Kind {
		case FaultReset, FaultRefuse:
			return 0, c.fail(r.Kind, "write")
		case FaultTruncate:
			n := min(r.TruncateAt, len(p))
			if n > 0 {
				_, _ = c.inner.Write(p[:n])
			}
			return n, c.fail(r.Kind, "write")
		case FaultStall:
			time.Sleep(r.Delay)
		case FaultSlow:
			return c.slowWrite(p, r)
		}
	}
	return c.inner.Write(p)
}

func (c *faultyConn) slowWrite(p []byte, r *Rule) (int, error) {
	chunk := r.Chunk
	if chunk <= 0 {
		chunk = 1024
	}
	total := 0
	for len(p) > 0 {
		n := min(chunk, len(p))
		w, err := c.inner.Write(p[:n])
		total += w
		if err != nil {
			return total, err
		}
		p = p[n:]
		if len(p) > 0 && r.Delay > 0 {
			time.Sleep(r.Delay)
		}
	}
	return total, nil
}

func (c *faultyConn) WriteGather(segs ...[]byte) (int64, error) {
	var first []byte
	for _, s := range segs {
		if len(s) > 0 {
			first = s
			break
		}
	}
	cl := c.classify(first)
	if r := c.inj.decide(OpWrite, cl); r != nil {
		switch r.Kind {
		case FaultReset, FaultRefuse:
			return 0, c.fail(r.Kind, "gather write")
		case FaultTruncate:
			remain := r.TruncateAt
			var written int64
			for _, s := range segs {
				if remain <= 0 {
					break
				}
				n := min(remain, len(s))
				w, _ := c.inner.Write(s[:n])
				written += int64(w)
				remain -= n
			}
			return written, c.fail(r.Kind, "gather write")
		case FaultStall:
			time.Sleep(r.Delay)
		case FaultSlow:
			var total int64
			for _, s := range segs {
				n, err := c.slowWrite(s, r)
				total += int64(n)
				if err != nil {
					return total, err
				}
			}
			return total, nil
		}
	}
	return c.inner.WriteGather(segs...)
}

func (c *faultyConn) Read(p []byte) (int, error) {
	if cl := ConnClass(c.class.Load()); cl != ClassAny {
		if r := c.inj.decide(OpRead, cl); r != nil {
			switch r.Kind {
			case FaultReset, FaultRefuse:
				return 0, c.fail(r.Kind, "read")
			case FaultTruncate:
				if r.TruncateAt > 0 && r.TruncateAt < len(p) {
					p = p[:r.TruncateAt]
				}
				n, _ := c.inner.Read(p)
				return n, c.fail(r.Kind, "read")
			case FaultStall, FaultSlow:
				time.Sleep(r.Delay)
			}
		}
		return c.inner.Read(p)
	}
	// Class not yet known: read first, classify from the received
	// bytes, then decide. A triggered reset drops the bytes — the fault
	// raced their delivery.
	n, err := c.inner.Read(p)
	if err != nil || n == 0 {
		return n, err
	}
	cl := c.classify(p[:n])
	if r := c.inj.decide(OpRead, cl); r != nil {
		switch r.Kind {
		case FaultReset, FaultRefuse, FaultTruncate:
			return 0, c.fail(r.Kind, "read")
		case FaultStall, FaultSlow:
			time.Sleep(r.Delay)
		}
	}
	return n, err
}

func (c *faultyConn) Close() error       { return c.inner.Close() }
func (c *faultyConn) LocalAddr() string  { return c.inner.LocalAddr() }
func (c *faultyConn) RemoteAddr() string { return c.inner.RemoteAddr() }
