package orb

import (
	"bytes"
	"sync"
	"testing"

	"zcorba/internal/cdr"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// keepServant keeps what its servant contract lets it keep and, to
// observe the ORB's reuse, what it does not: the last put_std argument
// slice (valid only until Invoke returns) and a Retained reference to
// every ZC-typed put argument (its own to keep).
type keepServant struct {
	mu      sync.Mutex
	lastStd []byte
	kept    []*zcbuf.Buffer
}

func (s *keepServant) Interface() *Interface { return storeIface }

func (s *keepServant) Invoke(op string, args []any) (any, []any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "put_std":
		s.lastStd = args[0].([]byte)
		return checksum(s.lastStd), nil, nil
	case "put":
		buf := args[0].(*zcbuf.Buffer)
		s.kept = append(s.kept, buf.Retain())
		return checksum(buf.Bytes()), nil, nil
	}
	return nil, nil, &SystemException{Name: "BAD_OPERATION", Completed: CompletedNo}
}

// keepPair serves a keepServant to a client of the given zero-copy
// setting, both on tcp.
func keepPair(t *testing.T, clientZC bool) (*pair, *keepServant, *ObjectRef) {
	t.Helper()
	p := newPair(t, Options{Transport: &transport.TCP{}, ZeroCopy: true},
		Options{Transport: &transport.TCP{}, ZeroCopy: clientZC})
	ks := &keepServant{}
	ref, err := p.server.Activate("keep", ks)
	if err != nil {
		t.Fatal(err)
	}
	cref, err := p.client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	return p, ks, cref
}

// drainLargeFree empties the process-wide free list of large buffers,
// so a test sees only the buffers its own calls put there.
func drainLargeFree() {
	for {
		select {
		case <-largeFree:
		default:
			return
		}
	}
}

// TestOctetInArgStorageReused: a plain sequence<octet> in-argument is
// the ORB's, valid until the servant returns. Once the request is
// freed, its storage serves the next request's argument: a servant
// that kept the slice (against the rule) sees it overwritten.
func TestOctetInArgStorageReused(t *testing.T) {
	_, ks, ref := keepPair(t, false)
	op := storeIface.Ops["put_std"]
	first, second := pattern(2*speculateMax), bytes.Repeat([]byte{0xA5}, 2*speculateMax)

	drainLargeFree()
	// Only the servant reads the first argument's bytes (its checksum
	// comes back): a read here would race with the second call's copy.
	res, _, err := ref.Invoke(op, []any{first})
	if err != nil {
		t.Fatal(err)
	}
	if res.(uint32) != checksum(first) {
		t.Fatal("first argument arrived corrupted")
	}
	ks.mu.Lock()
	kept := ks.lastStd
	ks.mu.Unlock()
	// The request's body and its argument go back once the reply has
	// left, which may be after the client already has the reply.
	waitFor(t, "the first request's buffers", func() bool { return len(largeFree) == 2 })
	if _, _, err := ref.Invoke(op, []any{second}); err != nil {
		t.Fatal(err)
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if &ks.lastStd[0] != &kept[0] {
		t.Fatal("second argument got fresh storage, not the first's")
	}
	if !bytes.Equal(kept, second) {
		t.Fatal("the reused storage does not hold the second argument")
	}
}

// TestZCInArgFallbackRetained: a ZC-typed in-argument that arrives
// marshaled (the client does not deposit) is a pool buffer the servant
// may Retain: a retained one still reads its bytes after later calls
// have come and gone, and goes back to the pool on its Release.
func TestZCInArgFallbackRetained(t *testing.T) {
	p, ks, ref := keepPair(t, false)
	op := storeIface.Ops["put"]
	blocks := [][]byte{
		pattern(2 * speculateMax),
		bytes.Repeat([]byte{0x11}, 2*speculateMax),
		bytes.Repeat([]byte{0x22}, 2*speculateMax),
		bytes.Repeat([]byte{0x33}, 4096),
	}
	fallbacks := p.client.Stats().ZCFallbacks.Load()
	for i, b := range blocks {
		if _, _, err := ref.Invoke(op, []any{zcbuf.Wrap(b)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if got := p.client.Stats().ZCFallbacks.Load() - fallbacks; got != int64(len(blocks)) {
		t.Fatalf("%d of %d calls took the marshaled fallback", got, len(blocks))
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if len(ks.kept) != len(blocks) {
		t.Fatalf("servant kept %d buffers, want %d", len(ks.kept), len(blocks))
	}
	// Once the ORB has dropped its references, the retained buffers are
	// all that is out of the server's pool.
	pool := p.server.Pool()
	waitFor(t, "only the retained buffers out of the pool", func() bool {
		return pool.Stats().Outstanding == int64(len(blocks))
	})
	for i, b := range ks.kept {
		if !bytes.Equal(b.Bytes(), blocks[i]) {
			t.Fatalf("retained argument %d changed after later calls", i)
		}
		b.Release()
	}
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("%d pool buffers outstanding after the servant's Release, want 0", got)
	}
}

// TestZCInArgFallbackPooled: an unretained ZC-typed in-argument that
// arrived marshaled goes back to the ORB's pool when the call ends, so
// the next call's copy lands in the same warm buffer.
func TestZCInArgFallbackPooled(t *testing.T) {
	p := newPair(t, Options{Transport: &transport.TCP{}, ZeroCopy: true},
		Options{Transport: &transport.TCP{}})
	pool := p.server.Pool()
	data := pattern(1 << 20)
	for i := 0; i < 4; i++ {
		res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
		if err != nil || res.(uint32) != checksum(data) {
			t.Fatalf("put %d: res=%v err=%v", i, res, err)
		}
		// The server releases the argument once its reply is sent.
		waitFor(t, "the argument back in the pool", func() bool { return pool.Stats().Outstanding == 0 })
	}
	if st := pool.Stats(); st.Allocs != 1 || st.Reuses != 3 {
		t.Fatalf("pool allocs=%d reuses=%d over 4 fallback calls, want 1 and 3", st.Allocs, st.Reuses)
	}
}

// TestMarshalOctetSeqBound: the standard path writes a bulk octet
// sequence straight to the encoder, so it checks a bounded sequence's
// bound itself, as the interpreter does: a value over the bound is
// refused before a byte is written, one at the bound is a count and
// the bytes.
func TestMarshalOctetSeqBound(t *testing.T) {
	var o ORB
	types := []*typecode.TypeCode{typecode.SequenceOf(typecode.TCOctet, 8)}
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := o.marshalValues(e, types, []any{make([]byte, 9)}, false); err == nil {
		t.Fatal("a 9-octet value marshaled into a sequence<octet, 8>")
	}
	if n := len(e.Bytes()); n != 0 {
		t.Fatalf("the refused value left %d bytes in the encoder", n)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := o.marshalValues(e, types, []any{zcbuf.Wrap(data)}, false); err != nil {
		t.Fatalf("value at the bound: %v", err)
	}
	want := cdr.NewEncoder(cdr.NativeOrder, 0)
	want.WriteOctetSeq(data)
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("wire bytes % x, want % x", e.Bytes(), want.Bytes())
	}
}
