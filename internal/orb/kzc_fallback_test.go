package orb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// These tests cover the kernel zero-copy tier's fallback contract on
// every platform: a data channel that cannot zero-copy (EOPNOTSUPP, a
// degraded kernel, or a plane that holds no references at all) must
// deliver the same bytes through the marshaled path, with the degradation
// visible in KzcFallbacks. The Linux-only MSG_ZEROCOPY/sendfile tests
// live in kzc_linux_test.go.

// zcDenyConn wraps a working stream with a transport.Depositor that
// always declines — the portable stand-in for a socket whose
// SO_ZEROCOPY send returns EOPNOTSUPP.
type zcDenyConn struct {
	transport.Conn
}

func (c *zcDenyConn) Deposit(train []transport.Segment, done func(copied bool)) (int64, error) {
	return 0, transport.ErrZeroCopyUnavailable
}

func (c *zcDenyConn) Threshold() int { return 1 }

// zcDenyTransport wraps every dialed conn in zcDenyConn.
type zcDenyTransport struct {
	transport.Transport
}

func (t *zcDenyTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &zcDenyConn{Conn: c}, nil
}

// TestKzcUnavailableFallsBackMarshaled: when the data channel's
// zero-copy send declines with ErrZeroCopyUnavailable, the invocation
// must transparently re-send on the marshaled path — one KzcFallbacks
// and one DataChanFallbacks, no caller-visible error, no leaked lease.
func TestKzcUnavailableFallsBackMarshaled(t *testing.T) {
	p := newPair(t,
		Options{ZeroCopy: true},
		Options{
			ZeroCopy:  true,
			Transport: &zcDenyTransport{Transport: &transport.TCP{}},
		})
	buf := zcbuf.Wrap(pattern(4096))
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{buf})
	if err != nil {
		t.Fatalf("put with declining depositor: %v", err)
	}
	if res.(uint32) != checksum(buf.Bytes()) {
		t.Fatal("checksum mismatch on the fallback path")
	}
	if n := p.client.Stats().KzcFallbacks.Load(); n != 1 {
		t.Fatalf("KzcFallbacks=%d, want 1", n)
	}
	if n := p.client.Stats().DataChanFallbacks.Load(); n != 1 {
		t.Fatalf("DataChanFallbacks=%d, want 1", n)
	}
	if n := p.client.Stats().KzcDeposits.Load(); n != 0 {
		t.Fatalf("KzcDeposits=%d on a declined send", n)
	}
	// The declined send's lease must have been settled immediately.
	if n := p.client.leases.Pending(); n != 0 {
		t.Fatalf("leases outstanding after declined send: %d", n)
	}
	// The marshaled re-send must have copied the payload.
	if n := p.client.Stats().PayloadCopyBytes.Load(); n == 0 {
		t.Fatal("no marshal copies on the fallback path")
	}
}

// --- file-backed deposits ---------------------------------------------------

var kzcFileIface = NewInterface("IDL:test/KzcFile:1.0", "KzcFile",
	&Operation{
		Name:       "read",
		Idempotent: true,
		Result:     typecode.TCZCOctetSeq,
	},
)

// kzcFileServant returns its file as a file-backed deposit payload on
// every read — the filetransfer example's servant in miniature.
type kzcFileServant struct {
	path string
}

func (s *kzcFileServant) Interface() *Interface { return kzcFileIface }

func (s *kzcFileServant) Invoke(op string, args []any) (any, []any, error) {
	if op != "read" {
		return nil, nil, &SystemException{Name: "BAD_OPERATION", Completed: CompletedNo}
	}
	fh, err := os.Open(s.path)
	if err != nil {
		return nil, nil, &SystemException{Name: "OBJECT_NOT_EXIST"}
	}
	st, err := fh.Stat()
	if err != nil {
		_ = fh.Close()
		return nil, nil, &SystemException{Name: "OBJECT_NOT_EXIST"}
	}
	f, err := zcbuf.WrapFile(fh, 0, st.Size())
	if err != nil {
		_ = fh.Close()
		return nil, nil, &SystemException{Name: "IMP_LIMIT"}
	}
	return f, nil, nil
}

// newFileServer writes body to a temp file and serves it through a
// kzcFileServant on a fresh server ORB.
func newFileServer(t *testing.T, serverOpts Options, body []byte) (*ORB, *ObjectRef) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "payload.bin")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	server, err := New(serverOpts)
	if err != nil {
		t.Fatalf("server ORB: %v", err)
	}
	t.Cleanup(server.Shutdown)
	ref, err := server.Activate("files", &kzcFileServant{path: path})
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	return server, ref
}

// TestFileDepositMaterializesOnPlainPlane: a *zcbuf.File reply on a
// data channel that holds no references (plain TCP here) must be
// materialized and deposited as plain bytes — same bytes, no error, no
// kernel-assist accounting, and the lift into user space counted as
// the payload copy it is.
func TestFileDepositMaterializesOnPlainPlane(t *testing.T) {
	body := pattern(96 << 10)
	server, ref := newFileServer(t, Options{ZeroCopy: true}, body)
	client, err := New(Options{ZeroCopy: true})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	res, _, err := cref.Invoke(kzcFileIface.Ops["read"], nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	buf := res.(*zcbuf.Buffer)
	defer buf.Release()
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatal("file body corrupted on the materialized path")
	}
	if n := server.Stats().KzcDeposits.Load(); n != 0 {
		t.Fatalf("KzcDeposits=%d on a plane without sendfile", n)
	}
	if n := server.Stats().PayloadCopyBytes.Load(); n != int64(len(body)) {
		t.Fatalf("server PayloadCopyBytes=%d, want %d (the materialized region)", n, len(body))
	}
}

// TestWrapFileValidation covers the file-payload constructor's edges.
func TestWrapFileValidation(t *testing.T) {
	if _, err := zcbuf.WrapFile(nil, 0, 1); err == nil {
		t.Fatal("nil file accepted")
	}
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zcbuf.WrapFile(fh, -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	f, err := zcbuf.WrapFile(fh, 2, 5)
	if err != nil {
		t.Fatalf("WrapFile: %v", err)
	}
	if f.Len() != 5 || f.Offset() != 2 {
		t.Fatalf("Len=%d Offset=%d", f.Len(), f.Offset())
	}
	b, err := f.Bytes()
	if err != nil || string(b) != "23456" {
		t.Fatalf("Bytes = %q, %v", b, err)
	}
	// A region past EOF must fail loudly, not return short bytes.
	g, err := zcbuf.WrapFile(fh, 8, 5)
	if err != nil {
		t.Fatalf("WrapFile past-EOF region: %v", err)
	}
	if _, err := g.Bytes(); err == nil {
		t.Fatal("short region read succeeded")
	}
	f.Release()
	f.Release() // double release is a no-op, and the fd is closed once
}
