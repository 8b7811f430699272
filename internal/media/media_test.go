package media

import (
	"bytes"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"zcorba/internal/idl"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// storeImpl is a reference implementation of Media_StoreHandler used by
// tests, examples and benchmarks.
type storeImpl struct {
	received atomic.Uint64
	lastSeq  atomic.Uint32
}

func (s *storeImpl) GetReceived() (uint64, error) { return s.received.Load(), nil }

func (s *storeImpl) Put(data []byte) (uint32, error) {
	s.received.Add(uint64(len(data)))
	return uint32(len(data)), nil
}

func (s *storeImpl) Zput(data *zcbuf.Buffer) (uint32, error) {
	s.received.Add(uint64(data.Len()))
	return uint32(data.Len()), nil
}

func (s *storeImpl) Get(n uint32) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)
	}
	return out, nil
}

func (s *storeImpl) Zget(n uint32) (*zcbuf.Buffer, error) {
	if n > 1<<28 {
		return nil, &Media_TransferError{Reason: "too large", Code: 7}
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)
	}
	return zcbuf.Wrap(out), nil
}

func (s *storeImpl) Describe(seq uint32) (Media_FrameInfo, error) {
	return Media_FrameInfo{
		Seq: seq, Width: 1920, Height: 1080,
		Codec: Media_MPEG4, Pts: float64(seq) / 25.0,
	}, nil
}

func (s *storeImpl) Reset() error {
	s.received.Store(0)
	return nil
}

var _ Media_StoreHandler = (*storeImpl)(nil)

func startStore(t *testing.T, zc bool) (Media_StoreStub, *storeImpl, *orb.ORB, *orb.ORB) {
	t.Helper()
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	impl := &storeImpl{}
	ref, err := server.Activate("store", Media_StoreSkeleton{Impl: impl})
	if err != nil {
		t.Fatal(err)
	}
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	return Media_StoreStub{Ref: cref}, impl, client, server
}

func TestGeneratedStandardPath(t *testing.T) {
	stub, impl, _, _ := startStore(t, false)
	data := bytes.Repeat([]byte{0x42}, 10000)
	n, err := stub.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n != 10000 || impl.received.Load() != 10000 {
		t.Fatalf("n=%d received=%d", n, impl.received.Load())
	}
	got, err := stub.Get(512)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(got) != 512 || got[10] != 10 {
		t.Fatalf("Get returned %d bytes", len(got))
	}
}

func TestGeneratedZeroCopyPath(t *testing.T) {
	stub, _, client, server := startStore(t, true)
	data := zcbuf.Wrap(bytes.Repeat([]byte{7}, 1<<20))
	defer data.Release()
	n, err := stub.Zput(data)
	if err != nil {
		t.Fatalf("Zput: %v", err)
	}
	if n != 1<<20 {
		t.Fatalf("n=%d", n)
	}
	if c := client.Stats().PayloadCopyBytes.Load() + server.Stats().PayloadCopyBytes.Load(); c != 0 {
		t.Fatalf("ZC path copied %d bytes", c)
	}

	buf, err := stub.Zget(65536)
	if err != nil {
		t.Fatalf("Zget: %v", err)
	}
	defer buf.Release()
	if buf.Len() != 65536 || buf.Bytes()[3] != 3 {
		t.Fatalf("Zget len=%d", buf.Len())
	}
	if client.Stats().DepositsReceived.Load() == 0 {
		t.Fatal("reply was not deposited")
	}
}

func TestGeneratedExceptionMapping(t *testing.T) {
	stub, _, _, _ := startStore(t, true)
	_, err := stub.Zget(1 << 29)
	var te *Media_TransferError
	if !errors.As(err, &te) {
		t.Fatalf("want Media_TransferError, got %v", err)
	}
	if te.Reason != "too large" || te.Code != 7 {
		t.Fatalf("exception %+v", te)
	}
}

func TestGeneratedStructRoundTrip(t *testing.T) {
	stub, _, _, _ := startStore(t, false)
	fi, err := stub.Describe(50)
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	want := Media_FrameInfo{Seq: 50, Width: 1920, Height: 1080, Codec: Media_MPEG4, Pts: 2.0}
	if fi != want {
		t.Fatalf("got %+v want %+v", fi, want)
	}
}

func TestGeneratedAttribute(t *testing.T) {
	stub, _, _, _ := startStore(t, false)
	if _, err := stub.Put([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := stub.GetReceived()
	if err != nil {
		t.Fatalf("GetReceived: %v", err)
	}
	if got != 3 {
		t.Fatalf("received=%d", got)
	}
}

func TestGeneratedOneway(t *testing.T) {
	stub, impl, _, _ := startStore(t, false)
	if _, err := stub.Put([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := stub.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	// Oneway is asynchronous; poll until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for impl.received.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("received=%d after reset", impl.received.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConstantsAndEnums(t *testing.T) {
	if Media_PAGE != 4096 {
		t.Fatalf("Media_PAGE=%d", Media_PAGE)
	}
	if Media_MPEG2 != 0 || Media_MPEG4 != 1 {
		t.Fatal("enum values")
	}
}

// TestGeneratedFileIsCurrent regenerates the Go code from media.idl and
// verifies the committed file matches (golden check).
func TestGeneratedFileIsCurrent(t *testing.T) {
	src, err := os.ReadFile("media.idl")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := idl.Parse("internal/media/media.idl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	code, err := idl.Generate(spec, idl.GenOptions{Package: "media"})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("media_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalize(code), normalize(committed)) {
		t.Fatal("media_gen.go is stale; rerun: make generate")
	}
}

// normalize strips gofmt whitespace differences for the golden check.
func normalize(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			out = append(out, c)
		}
	}
	return out
}
