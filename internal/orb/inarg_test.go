package orb

import (
	"bytes"
	"sync"
	"testing"

	"zcorba/internal/transport"
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
// marshaled (the client does not deposit) is wrapped storage of its
// own, not ORB-owned: a servant that Retains it still reads its bytes
// after later calls have come and gone.
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
	for i, b := range ks.kept {
		if !bytes.Equal(b.Bytes(), blocks[i]) {
			t.Fatalf("retained argument %d changed after later calls", i)
		}
		b.Release()
	}
}
