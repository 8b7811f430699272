package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/orb"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// workload is one fixed input shape. All four are closed loops of one
// caller on one connection; they differ in block size, operation and
// the planes the bytes travel on.
type workload struct {
	Name string
	Why  string
	Size int
	Op   string // "zput", "put" or "zget"
	// ZeroCopy selects the direct-deposit ORB on plain TCP; without it
	// the standard marshalled path runs on the copying stack shim.
	ZeroCopy bool
	// Shm puts the data plane on a shared-memory ring (control stays TCP).
	Shm bool
}

// The two block sizes: a page is the paper's smallest transfer, 1 MiB its
// Fig. 6 headline.
const (
	pageSize = 4 << 10
	bulkSize = 1 << 20
)

var workloads = []workload{
	{Name: "page_zput_tcp", Size: pageSize, Op: "zput", ZeroCopy: true,
		Why: "4 KiB zput on tcp control + tcp data: the paper's one-page claim, where fixed per-call cost is all of the time"},
	{Name: "bulk_zput_tcp", Size: bulkSize, Op: "zput", ZeroCopy: true,
		Why: "1 MiB zput on the same planes: the deposit path dominates and marshalling is nothing, so fixed-cost savings must not show here"},
	{Name: "bulk_put_std", Size: bulkSize, Op: "put",
		Why: "1 MiB put through the marshalled path on the copying stack: the paper's baseline, bypasses every deposit plane"},
	{Name: "bulk_zget_shm", Size: bulkSize, Op: "zget", ZeroCopy: true, Shm: true,
		Why: "1 MiB zget with replies deposited into a shared-memory ring: the deposit machinery the other way round on a non-tcp plane"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// Inputs and verification

const sampledOffsets = 64

// inputs are the seed-derived payload and the positions both ends
// sample. Bytes 0..7 of every block carry the request's stamp; the rest
// is the pattern.
type inputs struct {
	pattern   []byte
	offsets   [sampledOffsets]int
	stampBase uint64
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func newInputs(seed uint64, size int) *inputs {
	x := seed
	in := &inputs{pattern: make([]byte, size), stampBase: splitmix(&x) >> 16}
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(in.pattern[i:], splitmix(&x))
	}
	for i := range in.offsets {
		in.offsets[i] = 8 + int(splitmix(&x)%uint64(size-8))
	}
	return in
}

// check verifies one block: length, stamp, the sampled offsets, and on
// every 64th stamp the whole block.
func (in *inputs) check(p []byte, stamp uint64) bool {
	if len(p) != len(in.pattern) || binary.LittleEndian.Uint64(p) != stamp {
		return false
	}
	for _, off := range in.offsets {
		if p[off] != in.pattern[off] {
			return false
		}
	}
	return stamp%64 != 0 || bytes.Equal(p[8:], in.pattern[8:])
}

// store is the benchmark's own Media::Store servant. It verifies what
// it receives, and serves zget from one pre-filled pooled buffer (the
// ORB releases its reference once the reply is written, so with one
// caller the buffer is free again before the next request).
type store struct {
	in   *inputs
	next uint64 // stamp of the next request
	out  *zcbuf.Buffer
	bad  atomic.Int64
	// corrupt makes the servant flip one sampled byte of every block it
	// handles; the smoke test uses it to prove verification bites.
	corrupt bool
}

func (s *store) verify(p []byte) uint32 {
	if s.corrupt && len(p) == len(s.in.pattern) {
		p[s.in.offsets[0]] = ^s.in.pattern[s.in.offsets[0]]
	}
	stamp := s.next
	s.next++
	if !s.in.check(p, stamp) {
		s.bad.Add(1)
		if len(p) >= 8 {
			s.next = binary.LittleEndian.Uint64(p) + 1
		}
		return 0
	}
	return uint32(len(p))
}

func (s *store) Put(data []byte) (uint32, error)         { return s.verify(data), nil }
func (s *store) Zput(data *zcbuf.Buffer) (uint32, error) { return s.verify(data.Bytes()), nil }

func (s *store) Zget(n uint32) (*zcbuf.Buffer, error) {
	if int(n) != s.out.Len() {
		return nil, &media.Media_TransferError{Reason: "unexpected block size", Code: n}
	}
	p := s.out.Bytes()
	binary.LittleEndian.PutUint64(p, s.next)
	s.next++
	if s.corrupt {
		p[s.in.offsets[0]] = ^s.in.pattern[s.in.offsets[0]]
	}
	return s.out.Retain(), nil
}

func (s *store) Get(n uint32) ([]byte, error) { return make([]byte, n), nil }
func (s *store) GetReceived() (uint64, error) { return s.next, nil }
func (s *store) Reset() error                 { return nil }
func (s *store) Describe(seq uint32) (media.Media_FrameInfo, error) {
	return media.Media_FrameInfo{Seq: seq}, nil
}

// ---------------------------------------------------------------------------
// One client/server pair

// pair is a server ORB and a client ORB in this process, talking over
// real loopback sockets, plus the one stub and send buffer the caller
// uses.
type pair struct {
	w        workload
	in       *inputs
	srv, cli *orb.ORB
	servant  *store
	stub     media.Media_StoreStub
	buf      *zcbuf.Buffer // zput/put payload, stamped per request
	stamp    uint64
	// tcp counts the socket reads and writes of both ORBs (the shm data
	// plane is not counted).
	tcp transport.Stats
}

// env is what a child process fixes once for all its pairs.
type env struct {
	outDir  string
	corrupt bool
	// tracers are handed to the ORBs of the traced run; nil otherwise.
	cliTracer, srvTracer *trace.Tracer
	sockSeq              int
}

// shmAddr names a fresh unix socket for an shm listener. The path is
// relative to the output directory: that keeps it inside the checkout and
// under the 108-byte sun_path limit wherever the checkout lives.
func (e *env) shmAddr() string {
	e.sockSeq++
	return "shm://" + filepath.Join(e.outDir, fmt.Sprintf("s%d-%d.sock", os.Getpid(), e.sockSeq))
}

func (w workload) transport(stats *transport.Stats) transport.Transport {
	tcp := renoTCP{&transport.TCP{Stats: stats}}
	if w.ZeroCopy {
		return tcp
	}
	return &transport.Copying{Inner: tcp, SendCopies: 1, RecvCopies: 1}
}

// newPair runs one cold set-up cycle: server ORB with its listeners and
// the activated servant, client ORB, reference resolution, control and
// data-plane connection (both dialled lazily by the first call), and
// the first verified invocation.
func newPair(w workload, in *inputs, e *env) (*pair, error) {
	p := &pair{w: w, in: in, stamp: in.stampBase}
	opts := orb.Options{
		Transport: w.transport(&p.tcp), ZeroCopy: w.ZeroCopy,
		CallTimeout: 10 * time.Second, Tracer: e.srvTracer,
	}
	if w.Shm {
		opts.DataListenAddr = e.shmAddr()
	}
	var err error
	if p.srv, err = orb.New(opts); err != nil {
		return nil, fmt.Errorf("server ORB: %w", err)
	}
	p.servant = &store{in: in, next: in.stampBase, corrupt: e.corrupt}
	if w.Op == "zget" {
		if p.servant.out, err = p.srv.Pool().Get(w.Size); err != nil {
			p.close()
			return nil, err
		}
		copy(p.servant.out.Bytes(), in.pattern)
	}
	ref, err := p.srv.Activate("bench-store", media.Media_StoreSkeleton{Impl: p.servant})
	if err != nil {
		p.close()
		return nil, fmt.Errorf("activate: %w", err)
	}
	if p.cli, err = orb.New(orb.Options{
		Transport: w.transport(&p.tcp), ZeroCopy: w.ZeroCopy,
		CallTimeout: 10 * time.Second, Tracer: e.cliTracer,
	}); err != nil {
		p.close()
		return nil, fmt.Errorf("client ORB: %w", err)
	}
	obj, err := p.cli.StringToObject(ref.String())
	if err != nil {
		p.close()
		return nil, fmt.Errorf("resolve: %w", err)
	}
	p.stub = media.Media_StoreStub{Ref: obj}
	if w.Op != "zget" {
		if p.buf, err = p.cli.Pool().Get(w.Size); err != nil {
			p.close()
			return nil, err
		}
		copy(p.buf.Bytes(), in.pattern)
	}
	if err := p.request(); err != nil {
		p.close()
		return nil, fmt.Errorf("first invocation: %w", err)
	}
	return p, nil
}

func (p *pair) close() {
	if p.buf != nil {
		p.buf.Release()
	}
	if p.cli != nil {
		p.cli.Shutdown()
	}
	if p.servant != nil && p.servant.out != nil {
		p.servant.out.Release()
	}
	if p.srv != nil {
		p.srv.Shutdown()
	}
}

var errVerify = errors.New("reply failed verification")

// acquire prepares the next request's argument: the sender stamps the
// block it is about to send.
func (p *pair) acquire() {
	if p.buf != nil {
		binary.LittleEndian.PutUint64(p.buf.Bytes(), p.stamp)
	}
}

// call invokes the workload's operation through the typed stub and
// returns what verify needs.
func (p *pair) call() (ack uint32, got *zcbuf.Buffer, err error) {
	switch p.w.Op {
	case "zput":
		ack, err = p.stub.Zput(p.buf)
	case "put":
		ack, err = p.stub.Put(p.buf.Bytes())
	default:
		got, err = p.stub.Zget(uint32(p.w.Size))
	}
	return ack, got, err
}

// verify checks the reply of the request stamped p.stamp and advances
// the stamp.
func (p *pair) verify(ack uint32, got *zcbuf.Buffer, err error) error {
	stamp := p.stamp
	p.stamp++
	if err != nil {
		return err
	}
	if got != nil {
		ok := p.in.check(got.Bytes(), stamp)
		got.Release()
		if !ok {
			return errVerify
		}
		return nil
	}
	if int(ack) != p.w.Size {
		return errVerify
	}
	return nil
}

// request is one closed-loop step: the next request is built only after
// this one's reply has been verified.
func (p *pair) request() error {
	p.acquire()
	return p.verify(p.call())
}

// ---------------------------------------------------------------------------
// Counters read from outside the ORBs

// counters is the subset of orb.Stats and zcbuf.PoolStats the
// benchmark reports, summed over both ORBs of a pair.
type counters [nCounters]int64

const (
	cPayloadCopies = iota
	cPayloadCopyBytes
	cDepositsSent
	cDepositBytesSent
	cShmDeposits
	cShmClaims
	cBodyAllocs
	cBodyReuses
	cZCFallbacks
	cDataChanFallbacks
	cShmMisses
	cRetries
	cTimeouts
	cLeaseExpiries
	cPoolAllocs
	cPoolReuses
	cSocketReads
	cSocketWrites
	nCounters
)

func (p *pair) counters() counters {
	var c counters
	for _, o := range []*orb.ORB{p.cli, p.srv} {
		s, ps := o.Stats(), o.Pool().Stats()
		one := counters{
			cPayloadCopies: s.PayloadCopies.Load(), cPayloadCopyBytes: s.PayloadCopyBytes.Load(),
			cDepositsSent: s.DepositsSent.Load(), cDepositBytesSent: s.DepositBytesSent.Load(),
			cShmDeposits: s.ShmDeposits.Load(), cShmClaims: s.ShmClaims.Load(),
			cBodyAllocs: s.BodyAllocs.Load(), cBodyReuses: s.BodyReuses.Load(),
			cZCFallbacks: s.ZCFallbacks.Load(), cDataChanFallbacks: s.DataChanFallbacks.Load(),
			cShmMisses: s.ShmMisses.Load(), cRetries: s.Retries.Load(),
			cTimeouts: s.Timeouts.Load(), cLeaseExpiries: s.LeaseExpiries.Load(),
			cPoolAllocs: ps.Allocs, cPoolReuses: ps.Reuses,
		}
		c = c.add(one)
	}
	c[cSocketReads], c[cSocketWrites] = p.tcp.Reads.Load(), p.tcp.Writes.Load()
	return c
}

func (c counters) sub(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

func (c counters) add(b counters) counters {
	for i := range c {
		c[i] += b[i]
	}
	return c
}

// planeError reports a zero-copy workload that left its plane: a copy,
// a fallback, or a plane counter that differs from the request count.
func (w workload) planeError(c counters, requests int64) error {
	if !w.ZeroCopy {
		return nil
	}
	if c[cPayloadCopyBytes] != 0 || c[cZCFallbacks] != 0 || c[cDataChanFallbacks] != 0 || c[cShmMisses] != 0 {
		return fmt.Errorf("left the zero-copy path: copied %d B, fallbacks zc=%d data=%d, shm misses=%d",
			c[cPayloadCopyBytes], c[cZCFallbacks], c[cDataChanFallbacks], c[cShmMisses])
	}
	if w.Shm {
		if c[cShmDeposits] != requests || c[cShmClaims] != requests {
			return fmt.Errorf("shm deposits=%d claims=%d for %d requests", c[cShmDeposits], c[cShmClaims], requests)
		}
		return nil
	}
	if c[cDepositsSent] != requests || c[cShmDeposits] != 0 {
		return fmt.Errorf("tcp deposits=%d (shm %d) for %d requests", c[cDepositsSent], c[cShmDeposits], requests)
	}
	return nil
}
