package orb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zcorba/internal/ior"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// --- test interface -------------------------------------------------------

var exFull = typecode.StructOf("IDL:test/StoreFull:1.0", "StoreFull",
	typecode.Member{Name: "capacity", Type: typecode.TCULong})

var storeIface = NewInterface("IDL:test/Store:1.0", "Store",
	&Operation{
		Name:       "put",
		Idempotent: true,
		Params:     []Param{{Name: "data", Type: typecode.TCZCOctetSeq, Dir: In}},
		Result:     typecode.TCULong,
	},
	&Operation{
		Name:       "put_std",
		Idempotent: true,
		Params:     []Param{{Name: "data", Type: typecode.TCOctetSeq, Dir: In}},
		Result:     typecode.TCULong,
	},
	&Operation{
		Name:       "put_tag",
		Idempotent: true,
		Params: []Param{
			{Name: "data", Type: typecode.TCZCOctetSeq, Dir: In},
			{Name: "tag", Type: typecode.TCString, Dir: In},
		},
		Result: typecode.TCULong,
	},
	&Operation{
		Name:       "get",
		Idempotent: true,
		Params:     []Param{{Name: "n", Type: typecode.TCULong, Dir: In}},
		Result:     typecode.TCZCOctetSeq,
	},
	&Operation{
		Name:   "half_nil",
		Params: []Param{{Name: "rest", Type: typecode.TCZCOctetSeq, Dir: Out}},
		Result: typecode.TCZCOctetSeq,
	},
	&Operation{
		Name:       "echo",
		Idempotent: true,
		Params:     []Param{{Name: "data", Type: typecode.TCZCOctetSeq, Dir: In}},
		Result:     typecode.TCZCOctetSeq,
	},
	&Operation{
		Name: "transform",
		Params: []Param{
			{Name: "data", Type: typecode.TCZCOctetSeq, Dir: InOut},
		},
		Result: typecode.TCVoid,
	},
	&Operation{
		Name: "swap",
		Params: []Param{
			{Name: "s", Type: typecode.TCString, Dir: InOut},
			{Name: "extra", Type: typecode.TCLong, Dir: Out},
		},
		Result: typecode.TCVoid,
	},
	&Operation{
		Name:       "fail",
		Result:     typecode.TCVoid,
		Exceptions: []*typecode.TypeCode{exFull},
	},
	&Operation{
		Name:   "boom",
		Result: typecode.TCVoid,
	},
	&Operation{
		Name:   "notify",
		Params: []Param{{Name: "tag", Type: typecode.TCULong, Dir: In}},
		Result: typecode.TCVoid,
		Oneway: true,
	},
	&Operation{
		Name:   "slow",
		Result: typecode.TCVoid,
	},
	putManyOp(2),
	putManyOp(8),
	putManyOp(32),
)

// putManyOp builds a putN operation taking n ZC octet streams — the
// scatter/gather deposit surface exercised by the gather train tests.
func putManyOp(n int) *Operation {
	params := make([]Param, n)
	for i := range params {
		params[i] = Param{Name: fmt.Sprintf("d%d", i), Type: typecode.TCZCOctetSeq, Dir: In}
	}
	return &Operation{
		Name:       fmt.Sprintf("put%d", n),
		Idempotent: true,
		Params:     params,
		Result:     typecode.TCULong,
	}
}

// storeServant sums bytes, serves blocks, echoes buffers.
type storeServant struct {
	mu       sync.Mutex
	lastSum  uint32
	lastHalf *zcbuf.Buffer // result buffer of the last half_nil
	notified chan uint32
	slowDur  time.Duration
}

func newStoreServant() *storeServant {
	return &storeServant{notified: make(chan uint32, 16)}
}

func (s *storeServant) Interface() *Interface { return storeIface }

func checksum(p []byte) uint32 {
	var sum uint32
	for _, b := range p {
		sum += uint32(b)
	}
	return sum
}

func (s *storeServant) Invoke(op string, args []any) (any, []any, error) {
	switch op {
	case "put":
		buf := args[0].(*zcbuf.Buffer)
		sum := checksum(buf.Bytes())
		s.mu.Lock()
		s.lastSum = sum
		s.mu.Unlock()
		return sum, nil, nil
	case "put_std":
		data := args[0].([]byte)
		return checksum(data), nil, nil
	case "put_tag":
		return checksum(args[0].(*zcbuf.Buffer).Bytes()) + uint32(len(args[1].(string))), nil, nil
	case "put2", "put8", "put32":
		var sum uint32
		for _, a := range args {
			sum += checksum(a.(*zcbuf.Buffer).Bytes())
		}
		s.mu.Lock()
		s.lastSum = sum
		s.mu.Unlock()
		return sum, nil, nil
	case "get":
		n := int(args[0].(uint32))
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i % 251)
		}
		return out, nil, nil
	case "half_nil":
		// A valid result next to a nil ZC out value the ORB cannot
		// send.
		b := zcbuf.Wrap(pattern(4096))
		s.mu.Lock()
		s.lastHalf = b
		s.mu.Unlock()
		return b, []any{(*zcbuf.Buffer)(nil)}, nil
	case "echo":
		buf := args[0].(*zcbuf.Buffer)
		// Returning the request buffer transfers a reference to the
		// ORB, so take one first (documented ownership contract).
		return buf.Retain(), nil, nil
	case "transform":
		// In-place uppercase-ish transform returned as the inout value.
		buf := args[0].(*zcbuf.Buffer)
		out := make([]byte, buf.Len())
		for i, b := range buf.Bytes() {
			out[i] = b ^ 0xFF
		}
		return nil, []any{zcbuf.Wrap(out)}, nil
	case "swap":
		in := args[0].(string)
		return nil, []any{in + "/swapped", int32(len(in))}, nil
	case "fail":
		return nil, nil, &UserException{Type: exFull, Fields: []any{uint32(4096)}}
	case "boom":
		return nil, nil, errors.New("servant blew up")
	case "notify":
		s.notified <- args[0].(uint32)
		return nil, nil, nil
	case "slow":
		time.Sleep(s.slowDur)
		return nil, nil, nil
	default:
		return nil, nil, &SystemException{Name: "BAD_OPERATION", Completed: CompletedNo}
	}
}

// --- helpers ---------------------------------------------------------------

type pair struct {
	server, client *ORB
	servant        *storeServant
	ref            *ObjectRef
}

// newPair starts a server ORB with a storeServant and a client ORB.
func newPair(t *testing.T, serverOpts, clientOpts Options) *pair {
	t.Helper()
	server, err := New(serverOpts)
	if err != nil {
		t.Fatalf("server ORB: %v", err)
	}
	t.Cleanup(server.Shutdown)
	sv := newStoreServant()
	ref, err := server.Activate("store", sv)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	client, err := New(clientOpts)
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	return &pair{server: server, client: client, servant: sv, ref: cref}
}

func tcpPair(t *testing.T, zc bool) *pair {
	return newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: zc},
		Options{Transport: &transport.TCP{}, ZeroCopy: zc})
}

func inprocPair(t *testing.T, zc bool) *pair {
	tr := &transport.InProc{}
	return newPair(t,
		Options{Transport: tr, ZeroCopy: zc},
		Options{Transport: tr, ZeroCopy: zc})
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

// --- tests -----------------------------------------------------------------

func TestStandardPathRoundTrip(t *testing.T) {
	for _, mk := range []func(*testing.T, bool) *pair{tcpPair, inprocPair} {
		p := mk(t, false)
		data := pattern(100000)
		res, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{data})
		if err != nil {
			t.Fatalf("put_std: %v", err)
		}
		if res.(uint32) != checksum(data) {
			t.Fatalf("checksum mismatch: %v", res)
		}
		// The standard path must have made marshal + demarshal copies.
		cpBytes := p.client.Stats().PayloadCopyBytes.Load() +
			p.server.Stats().PayloadCopyBytes.Load()
		if cpBytes < int64(len(data))*2 {
			t.Fatalf("standard path copied only %d bytes", cpBytes)
		}
	}
}

func TestZeroCopyPathRoundTrip(t *testing.T) {
	p := tcpPair(t, true)
	data := pattern(1 << 20)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatalf("checksum mismatch")
	}
	// Strict zero-copy: no user-space payload copies anywhere.
	if n := p.client.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("client copied %d payload bytes on ZC path", n)
	}
	if n := p.server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("server copied %d payload bytes on ZC path", n)
	}
	if p.client.Stats().DepositsSent.Load() != 1 {
		t.Fatalf("DepositsSent=%d", p.client.Stats().DepositsSent.Load())
	}
	if p.server.Stats().DepositsReceived.Load() != 1 {
		t.Fatalf("DepositsReceived=%d", p.server.Stats().DepositsReceived.Load())
	}
	if got := p.server.Stats().DepositBytesRecv.Load(); got != 1<<20 {
		t.Fatalf("DepositBytesRecv=%d", got)
	}
}

func TestZeroCopyReplyDeposit(t *testing.T) {
	p := tcpPair(t, true)
	res, _, err := p.ref.Invoke(storeIface.Ops["get"], []any{uint32(65536)})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	buf, ok := res.(*zcbuf.Buffer)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	defer buf.Release()
	if buf.Len() != 65536 {
		t.Fatalf("len=%d", buf.Len())
	}
	if !buf.IsPageAligned() {
		t.Fatal("deposited reply buffer must be page aligned")
	}
	for i, b := range buf.Bytes() {
		if b != byte(i%251) {
			t.Fatalf("corrupt byte %d", i)
		}
	}
	if n := p.client.Stats().DepositsReceived.Load(); n != 1 {
		t.Fatalf("client DepositsReceived=%d", n)
	}
	if n := p.client.Stats().PayloadCopyBytes.Load() +
		p.server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("%d payload bytes copied on ZC reply path", n)
	}
}

func TestInOutZeroCopyBothDirections(t *testing.T) {
	// An inout ZC parameter rides the data channel in the request AND
	// the reply of the same invocation.
	p := tcpPair(t, true)
	data := pattern(256 << 10)
	_, outs, err := p.ref.Invoke(storeIface.Ops["transform"], []any{data})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	buf := outs[0].(*zcbuf.Buffer)
	defer buf.Release()
	for i, b := range buf.Bytes() {
		if b != data[i]^0xFF {
			t.Fatalf("byte %d not transformed", i)
		}
	}
	if n := p.client.Stats().PayloadCopyBytes.Load() +
		p.server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("inout ZC copied %d bytes", n)
	}
	if p.client.Stats().DepositsSent.Load() != 1 ||
		p.client.Stats().DepositsReceived.Load() != 1 {
		t.Fatalf("deposit counts %d/%d",
			p.client.Stats().DepositsSent.Load(),
			p.client.Stats().DepositsReceived.Load())
	}
}

func TestEchoBufferOwnership(t *testing.T) {
	p := tcpPair(t, true)
	data := pattern(300000)
	res, _, err := p.ref.Invoke(storeIface.Ops["echo"], []any{data})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	buf := res.(*zcbuf.Buffer)
	defer buf.Release()
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("echo corrupted payload")
	}
}

func TestArchMismatchFallsBack(t *testing.T) {
	server, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true, Arch: "sparc/big/ancient"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	sv := newStoreServant()
	ref, err := server.Activate("store", sv)
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(50000)
	res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("put with arch mismatch: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch on fallback path")
	}
	if client.Stats().ZCFallbacks.Load() == 0 {
		t.Fatal("expected a recorded ZC fallback")
	}
	if client.Stats().DepositsSent.Load() != 0 {
		t.Fatal("no deposits may be sent on fallback")
	}
}

func TestZCTypeWithoutZeroCopyOrbs(t *testing.T) {
	// ZC-typed parameters must interoperate with ORBs that never
	// enable the extension (standard IIOP fallback).
	p := tcpPair(t, false)
	data := pattern(10000)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
}

func TestInOutAndOutParams(t *testing.T) {
	p := inprocPair(t, false)
	res, outs, err := p.ref.Invoke(storeIface.Ops["swap"], []any{"abc"})
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if res != nil {
		t.Fatalf("void result, got %v", res)
	}
	if len(outs) != 2 || outs[0].(string) != "abc/swapped" || outs[1].(int32) != 3 {
		t.Fatalf("outs %v", outs)
	}
}

func TestUserException(t *testing.T) {
	p := tcpPair(t, false)
	_, _, err := p.ref.Invoke(storeIface.Ops["fail"], nil)
	var ue *UserException
	if !errors.As(err, &ue) {
		t.Fatalf("want UserException, got %v", err)
	}
	if ue.Type.RepoID() != "IDL:test/StoreFull:1.0" {
		t.Fatalf("repo ID %s", ue.Type.RepoID())
	}
	if len(ue.Fields) != 1 || ue.Fields[0].(uint32) != 4096 {
		t.Fatalf("fields %v", ue.Fields)
	}
}

func TestServantErrorBecomesUnknown(t *testing.T) {
	p := tcpPair(t, false)
	_, _, err := p.ref.Invoke(storeIface.Ops["boom"], nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "UNKNOWN" {
		t.Fatalf("want UNKNOWN system exception, got %v", err)
	}
}

func TestBadOperationAndObjectNotExist(t *testing.T) {
	p := tcpPair(t, false)
	bogus := &Operation{Name: "no_such_op", Result: typecode.TCVoid}
	_, _, err := p.ref.Invoke(bogus, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "BAD_OPERATION" {
		t.Fatalf("want BAD_OPERATION, got %v", err)
	}

	// Reference to a key that is not active.
	ghost := p.server.refForLocked("ghost", "IDL:test/Store:1.0")
	gref, err := p.client.StringToObject(ghost.String())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = gref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}})
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("want OBJECT_NOT_EXIST, got %v", err)
	}
}

func TestOneway(t *testing.T) {
	p := tcpPair(t, false)
	_, _, err := p.ref.Invoke(storeIface.Ops["notify"], []any{uint32(77)})
	if err != nil {
		t.Fatalf("oneway: %v", err)
	}
	select {
	case got := <-p.servant.notified:
		if got != 77 {
			t.Fatalf("notified %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oneway never arrived")
	}
}

func TestIsAAndNonExistent(t *testing.T) {
	p := tcpPair(t, false)
	ok, err := p.ref.IsA("IDL:test/Store:1.0")
	if err != nil || !ok {
		t.Fatalf("IsA: %v %v", ok, err)
	}
	ok, err = p.ref.IsA("IDL:test/Other:1.0")
	if err != nil || ok {
		t.Fatalf("IsA other: %v %v", ok, err)
	}
	ne, err := p.ref.NonExistent()
	if err != nil || ne {
		t.Fatalf("NonExistent: %v %v", ne, err)
	}
}

func TestConcurrentZeroCopyInvocations(t *testing.T) {
	p := tcpPair(t, true)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n := 4096*(g+1) + i*1000
				data := pattern(n)
				res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if res.(uint32) != checksum(data) {
					errs <- fmt.Errorf("g%d i%d: checksum mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := p.client.Stats().PayloadCopyBytes.Load() +
		p.server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("%d payload bytes copied under concurrency", n)
	}
}

func TestCollocatedInvocation(t *testing.T) {
	o, err := New(Options{Transport: &transport.InProc{}, Collocation: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	sv := newStoreServant()
	ref, err := o.Activate("store", sv)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(100000)
	res, _, err := ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("collocated put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
	if o.Stats().Collocated.Load() != 1 {
		t.Fatalf("Collocated=%d", o.Stats().Collocated.Load())
	}
	if o.Stats().RequestsSent.Load() != 0 {
		t.Fatal("collocated call must not hit the wire")
	}
}

func TestInvocationTimeout(t *testing.T) {
	server, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	sv := newStoreServant()
	sv.slowDur = 2 * time.Second
	ref, err := server.Activate("store", sv)
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: &transport.TCP{}, CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = cref.Invoke(storeIface.Ops["slow"], nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "TIMEOUT" {
		t.Fatalf("want TIMEOUT, got %v", err)
	}
	if client.Stats().CancelsSent.Load() != 1 {
		t.Fatalf("CancelsSent=%d, want 1", client.Stats().CancelsSent.Load())
	}
	// The connection survives the cancel; later calls succeed.
	res, _, err := cref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1, 2}})
	if err != nil || res.(uint32) != 3 {
		t.Fatalf("post-timeout call: %v %v", res, err)
	}
}

func TestDialFailure(t *testing.T) {
	client, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	ref, err := client.StringToObject("corbaloc::127.0.0.1:1/store")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}})
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "COMM_FAILURE" {
		t.Fatalf("want COMM_FAILURE, got %v", err)
	}
}

func TestDuplicateActivation(t *testing.T) {
	o, err := New(Options{Transport: &transport.InProc{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	if _, err := o.Activate("k", newStoreServant()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Activate("k", newStoreServant()); err == nil {
		t.Fatal("want duplicate-key error")
	}
	if _, err := o.Activate("", newStoreServant()); err == nil {
		t.Fatal("want empty-key error")
	}
	o.Deactivate("k")
	if _, err := o.Activate("k", newStoreServant()); err != nil {
		t.Fatalf("reactivate after deactivate: %v", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	o, err := New(Options{Transport: &transport.InProc{}})
	if err != nil {
		t.Fatal(err)
	}
	o.Shutdown()
	o.Shutdown() // must not hang or panic
	if _, err := o.Activate("x", newStoreServant()); err == nil {
		t.Fatal("Activate after Shutdown must fail")
	}
}

func TestWrongArgCount(t *testing.T) {
	p := tcpPair(t, false)
	_, _, err := p.ref.Invoke(storeIface.Ops["put_std"], nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "BAD_PARAM" {
		t.Fatalf("want BAD_PARAM, got %v", err)
	}
}

func TestManySequentialZC(t *testing.T) {
	p := tcpPair(t, true)
	for i := 0; i < 50; i++ {
		data := pattern(4096 + i*511)
		res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if res.(uint32) != checksum(data) {
			t.Fatalf("iter %d: checksum", i)
		}
	}
	// Pool reuse must kick in: far fewer allocations than requests.
	st := p.server.Pool().Stats()
	if st.Allocs >= 50 {
		t.Fatalf("pool never reused buffers: %+v", st)
	}
}

func TestDefaultArchFormat(t *testing.T) {
	a := DefaultArch()
	if a == "" || len(a) < 5 {
		t.Fatalf("arch %q", a)
	}
	o1, _ := New(Options{Transport: &transport.InProc{}})
	t.Cleanup(o1.Shutdown)
	if o1.Arch() != a {
		t.Fatalf("orb arch %q != %q", o1.Arch(), a)
	}
}

// countingTCP is a TCP transport that counts the connections its
// listeners accept and its dials open.
type countingTCP struct {
	transport.TCP
	accepts, dials atomic.Int64
}

func (t *countingTCP) Listen(addr string) (transport.Listener, error) {
	l, err := t.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, n: &t.accepts}, nil
}

func (t *countingTCP) Dial(addr string) (transport.Conn, error) {
	t.dials.Add(1)
	return t.TCP.Dial(addr)
}

type countingListener struct {
	transport.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestZeroCopyPairOpensOneSocket: a zero-copy tcp pair carries its
// deposit trains, page and bulk, request and reply, on its one control
// connection; no data channel is dialled or accepted.
func TestZeroCopyPairOpensOneSocket(t *testing.T) {
	srv, cli := &countingTCP{}, &countingTCP{}
	p := newPair(t,
		Options{Transport: srv, ZeroCopy: true},
		Options{Transport: cli, ZeroCopy: true})
	for _, size := range []int{4 << 10, 1 << 20} {
		data := pattern(size)
		res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
		if err != nil || res.(uint32) != checksum(data) {
			t.Fatalf("put %d: res=%v err=%v", size, res, err)
		}
	}
	res, _, err := p.ref.Invoke(storeIface.Ops["get"], []any{uint32(1 << 20)})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	res.(*zcbuf.Buffer).Release()
	if got := p.client.Stats().DepositsSent.Load(); got != 2 {
		t.Fatalf("client DepositsSent = %d, want 2", got)
	}
	if got := p.client.Stats().DepositsReceived.Load(); got != 1 {
		t.Fatalf("client DepositsReceived = %d, want 1", got)
	}
	if a, d := srv.accepts.Load(), cli.dials.Load(); a != 1 || d != 1 {
		t.Fatalf("server accepted %d connections, client dialled %d; want 1 and 1", a, d)
	}
}

// TestOldDepositReferenceServedOnControlStream: a reference minted when
// the deposit component named a separate tcp data listener still parses
// and is served: its endpoint is never dialled, and the train rides the
// control connection.
func TestOldDepositReferenceServedOnControlStream(t *testing.T) {
	cli := &countingTCP{}
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: true},
		Options{Transport: cli, ZeroCopy: true})
	prof, ok := p.ref.IOR().IIOP()
	if !ok {
		t.Fatal("no IIOP profile")
	}
	// Port 1 on loopback: nothing listens there.
	old := ior.NewIIOP(p.ref.IOR().TypeID, prof.Host, prof.Port, prof.ObjectKey,
		ior.ZCDeposit{Arch: p.client.Arch(), Host: "127.0.0.1", Port: 1}.Encode())
	ref := p.client.ObjectFromIOR(old)
	data := pattern(1 << 20)
	res, _, err := ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
	if err != nil || res.(uint32) != checksum(data) {
		t.Fatalf("put through an old reference: res=%v err=%v", res, err)
	}
	if got := p.client.Stats().DepositsSent.Load(); got != 1 {
		t.Fatalf("DepositsSent = %d, want 1 (the train rode the control stream)", got)
	}
	if d := cli.dials.Load(); d != 1 {
		t.Fatalf("client dialled %d connections, want 1", d)
	}
}

// TestDataListenAddrServesOnlyShm: the second endpoint exists only for
// the shared-memory plane, so New refuses a stream endpoint there
// instead of opening a listener nothing dials, and starts nothing on
// the way.
func TestDataListenAddrServesOnlyShm(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, opts := range []Options{
		{DataListenAddr: "tcp://127.0.0.1:0"},
		{DataListenAddr: "inproc://data"},
		{DataListenAddr: "127.0.0.1:0"},
		{Transport: &transport.InProc{}, DataListenAddr: "inproc://data"},
	} {
		opts.ZeroCopy = true
		if o, err := New(opts); err == nil {
			o.Shutdown()
			t.Fatalf("New accepted data endpoint %q (Transport %T)", opts.DataListenAddr, opts.Transport)
		}
	}
	assertNoGoroutineLeak(t, before)
}

// TestNewListenFailureStartsNothing: a New that fails to open its
// control or its shm data listener returns with nothing of itself left
// running, the event engine's dispatchers included.
func TestNewListenFailureStartsNothing(t *testing.T) {
	taken, err := (&transport.TCP{}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := runtime.NumGoroutine()
	if o, err := New(Options{Engine: true, ListenAddr: taken.Addr()}); err == nil {
		o.Shutdown()
		t.Fatalf("New listened on %s, which is already bound", taken.Addr())
	}
	assertNoGoroutineLeak(t, before)

	t.Run("shm", func(t *testing.T) {
		// The listener's directory does not exist, so the data listen fails.
		missing := shmDataAddr(t) + ".d/data.sock"
		before := runtime.NumGoroutine()
		if o, err := New(Options{Engine: true, ZeroCopy: true, DataListenAddr: missing}); err == nil {
			o.Shutdown()
			t.Fatalf("New listened on %s", missing)
		}
		assertNoGoroutineLeak(t, before)
	})
}
