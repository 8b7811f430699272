package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/ior"
	"zcorba/internal/shmem"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// The probes time one public function of one module at a time, in a
// process of their own: they are the floors under the workloads. Each
// is a batch sized to the batch length, repeated; the median is
// reported.

// probe is one timed operation. conv turns nanoseconds per operation
// into the reported unit.
type probe struct {
	name string
	unit string
	conv func(ns float64) float64
	// setup returns the operation and its teardown.
	setup func(e *env) (op func() error, done func(), err error)
}

func perNS(ns float64) float64 { return ns }
func perUS(ns float64) float64 { return ns / 1e3 }

// streamMBps reports an operation that moved streamBlocks bulk blocks as 10^6
// bytes per second.
func streamMBps(ns float64) float64 { return streamBlocks * float64(bulkSize) * 1e3 / ns }

var probes = []probe{
	{"transport.tcp.pingpong_4K_us", "us", perUS, pingpongProbe("tcp", pageSize, 1, false)},
	{"transport.tcp.pingpong_1M_us", "us", perUS, pingpongProbe("tcp", bulkSize, 1, false)},
	{"transport.tcp.stream_1M_MBps", "MB/s", streamMBps, pingpongProbe("tcp", bulkSize, streamBlocks, false)},
	{"transport.copying.pingpong_1M_us", "us", perUS, pingpongProbe("copying", bulkSize, 1, false)},
	{"transport.shm.pingpong_1M_us", "us", perUS, pingpongProbe("shm", bulkSize, 1, false)},
	{"shmem.ring.reserve_commit_claim_1M_us", "us", perUS, ringProbe(bulkSize)},
	{"shmem.ring.reserve_commit_claim_4K_ns", "ns", perNS, ringProbe(pageSize)},
	{"transport.tcp.dial_us", "us", perUS, pingpongProbe("tcp", 12, 1, true)},
	{"transport.shm.dial_us", "us", perUS, pingpongProbe("shm", 12, 1, true)},
	{"ior.parse_ns", "ns", perNS, iorProbe},
	{"giop.request_header_marshal_ns", "ns", perNS, requestMarshalProbe},
	{"giop.request_header_unmarshal_ns", "ns", perNS, requestUnmarshalProbe},
	{"giop.reply_header_roundtrip_ns", "ns", perNS, replyHeaderProbe},
	{"giop.depositinfo_roundtrip_ns", "ns", perNS, depositInfoProbe},
	{"orb.null_call_us", "us", perUS, nullCallProbe},
	{"cdr.write_octet_run_1M_us", "us", perUS, cdrWriteProbe},
	{"cdr.read_octet_run_1M_us", "us", perUS, cdrReadProbe},
	{"typecode.marshal_octetseq_1M_us", "us", perUS, typecodeMarshalProbe},
	{"typecode.unmarshal_octetseq_1M_us", "us", perUS, typecodeUnmarshalProbe},
	{"zcbuf.pool_get_release_4K_ns", "ns", perNS, poolProbe(pageSize)},
	{"zcbuf.pool_get_release_1M_ns", "ns", perNS, poolProbe(bulkSize)},
	{"zcbuf.lease_grant_settle_ns", "ns", perNS, leaseProbe},
	{"trace.record_ns", "ns", perNS, traceRecordProbe},
}

// runProbes is the probes child: one JSON object, name to stat.
func runProbes(outDir string, m method, stdout io.Writer) error {
	runtime.GOMAXPROCS(1)
	e := &env{outDir: outDir}
	out := make(map[string]stat, len(probes))
	for _, p := range probes {
		op, done, err := p.setup(e)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		ns, err := timeBatches(op, m.ProbeBatch, m.ProbeReps)
		done()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		for i, v := range ns {
			ns[i] = p.conv(v)
		}
		out[p.name] = summarize(ns, p.unit)
	}
	return json.NewEncoder(stdout).Encode(out)
}

// timeBatches sizes a batch of op to about the batch length, runs it
// reps times and returns nanoseconds per operation of each.
func timeBatches(op func() error, batch time.Duration, reps int) ([]float64, error) {
	run := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	n := 1
	for {
		d, err := run(n)
		if err != nil {
			return nil, err
		}
		if d >= batch/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(batch)/float64(max(d, 1))))
			break
		}
		n *= 2
	}
	out := make([]float64, reps)
	for i := range out {
		d, err := run(n)
		if err != nil {
			return nil, err
		}
		out[i] = float64(d.Nanoseconds()) / float64(n)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// transport

const streamBlocks = 8

func probeTransport(name string, e *env) (transport.Transport, string, error) {
	switch name {
	case "copying":
		return &transport.Copying{Inner: renoTCP{&transport.TCP{}}, SendCopies: 1, RecvCopies: 1}, "127.0.0.1:0", nil
	case "shm":
		return transport.FromAddr(e.shmAddr(), nil)
	default:
		return renoTCP{&transport.TCP{}}, "127.0.0.1:0", nil
	}
}

// dataPreamble is what the ORB writes first on a data channel; on the
// shm transport it is also what promotes the stream to its ring pair.
var dataPreamble = [12]byte{'Z', 'C', 'D', 'C'}

// pingpongProbe times a raw round trip shaped like a zput: blocks
// blocks of size bytes one way, an 8-byte acknowledgement back. With
// perDial every operation is a fresh connection — dial, preamble,
// acknowledgement, close — which on shm includes creating, passing and
// mapping the ring segment.
func pingpongProbe(tr string, size, blocks int, perDial bool) func(*env) (func() error, func(), error) {
	return func(e *env) (func() error, func(), error) {
		t, addr, err := probeTransport(tr, e)
		if err != nil {
			return nil, nil, err
		}
		lis, err := t.Listen(addr)
		if err != nil {
			return nil, nil, err
		}
		go func() {
			for {
				c, err := lis.Accept()
				if err != nil {
					return
				}
				go echoAcks(c, size, blocks, perDial)
			}
		}()
		var pool zcbuf.Pool
		buf, err := pool.Get(size)
		if err != nil {
			_ = lis.Close()
			return nil, nil, err
		}
		var ack [8]byte
		exchange := func(c transport.Conn) error {
			for i := 0; i < blocks; i++ {
				if _, err := c.WriteGather(buf.Bytes()); err != nil {
					return err
				}
			}
			_, err := io.ReadFull(c, ack[:])
			return err
		}
		if perDial {
			copy(buf.Bytes(), dataPreamble[:])
			return func() error {
				c, err := t.Dial(lis.Addr())
				if err != nil {
					return err
				}
				defer c.Close()
				return exchange(c)
			}, func() { _ = lis.Close() }, nil
		}
		c, err := t.Dial(lis.Addr())
		if err != nil {
			_ = lis.Close()
			return nil, nil, err
		}
		if _, err := c.Write(dataPreamble[:]); err != nil {
			_ = c.Close()
			_ = lis.Close()
			return nil, nil, err
		}
		return func() error { return exchange(c) }, func() { _ = c.Close(); _ = lis.Close() }, nil
	}
}

// echoAcks is the peer of pingpongProbe: it consumes blocks*size bytes
// — claimed in place where the connection offers that, as the ORB's
// deposit read does — and acknowledges with 8 bytes.
func echoAcks(c transport.Conn, size, blocks int, perDial bool) {
	defer c.Close()
	buf := make([]byte, size)
	if !perDial {
		if _, err := io.ReadFull(c, buf[:len(dataPreamble)]); err != nil {
			return
		}
	}
	dr, _ := c.(transport.DirectReader)
	var ack [8]byte
	for {
		for i := 0; i < blocks; i++ {
			if dr != nil && !perDial {
				_, rel, ok, err := dr.ReadDirect(size)
				if err != nil {
					return
				}
				if ok {
					rel.Release()
					continue
				}
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
		}
		if _, err := c.Write(ack[:]); err != nil {
			return
		}
	}
}

// ringProbe times one record through a shared-memory ring on the
// thread that wrote it: reserve credit, copy in, publish, claim,
// release.
func ringProbe(size int) func(*env) (func() error, func(), error) {
	return func(*env) (func() error, func(), error) {
		newSegment := shmem.NewHeapSegment
		if shmem.Supported() {
			newSegment = shmem.Create
		}
		seg, err := newSegment(shmem.Config{})
		if err != nil {
			return nil, nil, err
		}
		prod, cons := seg.Ring(0).Producer(), seg.Ring(0).Consumer()
		payload := make([]byte, size)
		return func() error {
			if _, err := prod.Write(payload); err != nil {
				return err
			}
			v, err := cons.Next()
			if err != nil {
				return err
			}
			v.Release()
			return nil
		}, func() { prod.Close(); cons.Close(); seg.Close() }, nil
	}
}

// ---------------------------------------------------------------------------
// ior, giop, orb

// nullPair is a zero-copy tcp pair whose payload never moves: the
// probes on it see framing and dispatch only.
func nullPair(e *env) (*pair, error) {
	w, _ := findWorkload("page_zput_tcp")
	return newPair(w, newInputs(1, w.Size), e)
}

func iorProbe(e *env) (func() error, func(), error) {
	p, err := nullPair(e)
	if err != nil {
		return nil, nil, err
	}
	s := p.stub.Ref.String()
	p.close()
	return func() error { _, err := ior.Parse(s); return err }, func() {}, nil
}

// nullCallProbe times _get_received: a two-way call with an empty
// request body. (Store::reset is oneway, so it has no reply to wait
// for and cannot time a round trip.)
func nullCallProbe(e *env) (func() error, func(), error) {
	p, err := nullPair(e)
	if err != nil {
		return nil, nil, err
	}
	return func() error { _, err := p.stub.GetReceived(); return err }, p.close, nil
}

var probeRequest = giop.RequestHeader{
	ServiceContexts: []giop.ServiceContext{probeDeposit.Encode()},
	RequestID:       1, ResponseExpected: true,
	ObjectKey: []byte("bench-store"), Operation: "zput", Principal: []byte{},
}

var probeDeposit = giop.DepositInfo{Arch: "amd64/little/go", Token: 1, Sizes: []uint32{pageSize}}

func requestMarshalProbe(*env) (func() error, func(), error) {
	return func() error {
		e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
		probeRequest.Marshal(e)
		cdr.PutEncoder(e)
		return nil
	}, func() {}, nil
}

func requestUnmarshalProbe(*env) (func() error, func(), error) {
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	probeRequest.Marshal(e)
	raw := e.Bytes()
	return func() error {
		d := cdr.GetDecoder(cdr.NativeOrder, giop.HeaderSize, raw)
		_, err := giop.UnmarshalRequestHeader(d)
		cdr.PutDecoder(d)
		return err
	}, func() {}, nil
}

func replyHeaderProbe(*env) (func() error, func(), error) {
	h := giop.ReplyHeader{RequestID: 1, Status: giop.ReplyNoException}
	return func() error {
		e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
		h.Marshal(e)
		d := cdr.GetDecoder(cdr.NativeOrder, giop.HeaderSize, e.Bytes())
		_, err := giop.UnmarshalReplyHeader(d)
		cdr.PutDecoder(d)
		cdr.PutEncoder(e)
		return err
	}, func() {}, nil
}

func depositInfoProbe(*env) (func() error, func(), error) {
	return func() error {
		_, err := giop.DecodeDepositInfo(probeDeposit.Encode().Data)
		return err
	}, func() {}, nil
}

// ---------------------------------------------------------------------------
// cdr, typecode

func cdrWriteProbe(*env) (func() error, func(), error) {
	p := make([]byte, bulkSize)
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	return func() error {
		e.Reset(cdr.NativeOrder, 0)
		e.WriteOctetRun(p)
		return nil
	}, func() {}, nil
}

func cdrReadProbe(*env) (func() error, func(), error) {
	raw := make([]byte, bulkSize)
	d := cdr.NewDecoder(cdr.NativeOrder, 0, raw)
	return func() error {
		d.Reset(cdr.NativeOrder, 0, raw)
		_, err := d.ReadOctetRun(len(raw))
		return err
	}, func() {}, nil
}

func typecodeMarshalProbe(*env) (func() error, func(), error) {
	p := make([]byte, bulkSize)
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	return func() error {
		e.Reset(cdr.NativeOrder, 0)
		return typecode.MarshalValue(e, typecode.TCOctetSeq, p)
	}, func() {}, nil
}

func typecodeUnmarshalProbe(*env) (func() error, func(), error) {
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := typecode.MarshalValue(e, typecode.TCOctetSeq, make([]byte, bulkSize)); err != nil {
		return nil, nil, err
	}
	raw := e.Bytes()
	d := cdr.NewDecoder(cdr.NativeOrder, 0, raw)
	return func() error {
		d.Reset(cdr.NativeOrder, 0, raw)
		_, err := typecode.UnmarshalValue(d, typecode.TCOctetSeq)
		return err
	}, func() {}, nil
}

// ---------------------------------------------------------------------------
// zcbuf, trace

func poolProbe(size int) func(*env) (func() error, func(), error) {
	return func(*env) (func() error, func(), error) {
		var pool zcbuf.Pool
		return func() error {
			b, err := pool.Get(size)
			if err != nil {
				return err
			}
			b.Release()
			return nil
		}, func() {}, nil
	}
}

func leaseProbe(*env) (func() error, func(), error) {
	var pool zcbuf.Pool
	var leases zcbuf.LeaseTable
	b, err := pool.Get(pageSize)
	if err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(time.Hour)
	return func() error {
		if !leases.Settle(leases.Grant(b, deadline, nil)) {
			return fmt.Errorf("lease expired")
		}
		return nil
	}, b.Release, nil
}

func traceRecordProbe(*env) (func() error, func(), error) {
	tr := trace.New(0)
	s := trace.Span{Trace: 1, Parent: 2, Kind: trace.KindMarshal, Op: "zput", Start: 1, Dur: 1}
	return func() error {
		tr.Record(s)
		return nil
	}, func() {}, nil
}
