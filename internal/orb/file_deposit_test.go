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

// File-backed deposits: a servant returns a *zcbuf.File and the ORB
// hands the region to the data plane, which sends it by sendfile on
// tcp and reads it into memory (a counted payload copy) elsewhere.

var fileIface = NewInterface("IDL:test/File:1.0", "File",
	&Operation{
		Name:       "read",
		Idempotent: true,
		Result:     typecode.TCZCOctetSeq,
	},
)

// fileServant returns its file as a file-backed deposit payload on
// every read — the filetransfer example's servant in miniature.
type fileServant struct {
	path string
}

func (s *fileServant) Interface() *Interface { return fileIface }

func (s *fileServant) Invoke(op string, args []any) (any, []any, error) {
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
// fileServant on a fresh server ORB.
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
	ref, err := server.Activate("files", &fileServant{path: path})
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	return server, ref
}

// TestFileDepositSendfileTCP: a *zcbuf.File reply on the tcp data
// plane goes disk→wire with sendfile — the filetransfer scenario,
// asserted: the body never enters server user space.
func TestFileDepositSendfileTCP(t *testing.T) {
	body := pattern(1 << 20)
	server, ref := newFileServer(t, Options{ZeroCopy: true}, body)
	buf := readFile(t, ref, Options{ZeroCopy: true})
	defer buf.Release()
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatal("file body corrupted through sendfile")
	}
	// The server bumps its counters after the reply's bytes have left.
	waitFor(t, "server-side deposit accounting", func() bool {
		return server.Stats().DepositBytesSent.Load() == 1<<20
	})
	if n := server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("server copied %d payload bytes on the sendfile path", n)
	}
}

// TestFileDepositMaterializesOnPlainPlane: a *zcbuf.File reply on a
// data plane without sendfile (inproc here) must be read into memory
// and deposited as plain bytes — same bytes, no error, and the lift
// into user space counted as the payload copy it is.
func TestFileDepositMaterializesOnPlainPlane(t *testing.T) {
	body := pattern(96 << 10)
	tr := &transport.InProc{}
	server, ref := newFileServer(t, Options{Transport: tr, ZeroCopy: true}, body)
	buf := readFile(t, ref, Options{Transport: tr, ZeroCopy: true})
	defer buf.Release()
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatal("file body corrupted on the materialized path")
	}
	waitFor(t, "server-side copy accounting", func() bool {
		return server.Stats().PayloadCopyBytes.Load() == int64(len(body))
	})
	if n := server.Stats().PayloadCopies.Load(); n != 1 {
		t.Fatalf("server PayloadCopies=%d, want 1 (the materialized region)", n)
	}
}

// readFile invokes read on ref from a fresh client ORB.
func readFile(t *testing.T, ref *ObjectRef, copts Options) *zcbuf.Buffer {
	t.Helper()
	client, err := New(copts)
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	res, _, err := cref.Invoke(fileIface.Ops["read"], nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return res.(*zcbuf.Buffer)
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
