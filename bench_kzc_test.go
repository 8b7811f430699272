//go:build linux

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/ttcp"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// kzcSink starts a CORBA sink whose data plane is the kernel zero-copy
// transport: control stays TCP, large deposits go out with
// MSG_ZEROCOPY and file-backed payloads with sendfile (docs/ZEROCOPY.md).
func kzcSink(b *testing.B) *ttcp.CorbaSink {
	b.Helper()
	sink, err := ttcp.NewCorbaSinkData(zcStack(), true, nil, "kzc://127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return sink
}

// kzcClient dials with a low negotiated threshold so every bench size
// (4K included) exercises the MSG_ZEROCOPY path, not just the ones
// above the 32 KiB default.
func kzcClient(b *testing.B) *orb.ORB {
	b.Helper()
	client, err := orb.New(orb.Options{
		Transport:     zcStack(),
		ZeroCopy:      true,
		DataTransport: &transport.KZC{Threshold: 2048},
	})
	if err != nil {
		b.Fatal(err)
	}
	return client
}

// BenchmarkKzc_Corba is the kernel zero-copy row of Figure 6: the same
// CORBA TTCP as BenchmarkFig6Right_ZCCorbaZCStack, but deposits are
// pinned by the kernel (MSG_ZEROCOPY) instead of copied into socket
// buffers, and the payload lease is released on the kernel's
// completion, not on write return.
func BenchmarkKzc_Corba(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			sink := kzcSink(b)
			defer sink.Close()
			client := kzcClient(b)
			defer client.Shutdown()
			b.SetBytes(int64(size))
			b.ResetTimer()
			if _, err := ttcp.CorbaSend(client, sink.IOR, size, b.N, true); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if n := client.Stats().KzcDeposits.Load(); n == 0 {
				b.Fatal("no kzc deposits: the MSG_ZEROCOPY path was not taken")
			}
			if n := client.Stats().PayloadCopyBytes.Load(); n != 0 {
				b.Fatalf("kzc bench copied %d payload bytes on the client", n)
			}
		})
	}
}

// BenchmarkKzc_RequestRate4K measures per-request overhead of the
// kernel zero-copy path (completion bookkeeping included) at each
// pipelining depth, mirroring BenchmarkRequestRate_ZC4K; allocs/op
// shares the same gated budget.
func BenchmarkKzc_RequestRate4K(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			sink := kzcSink(b)
			defer sink.Close()
			client := kzcClient(b)
			defer client.Shutdown()
			b.SetBytes(4 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := ttcp.CorbaSendWindow(client, sink.IOR, 4<<10, b.N, w, true); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if n := client.Stats().KzcDeposits.Load(); n == 0 {
				b.Fatal("no kzc deposits: the MSG_ZEROCOPY path was not taken")
			}
		})
	}
}

// --- file transfer: sendfile vs. marshaled baseline -------------------------

var benchFileIface = orb.NewInterface("IDL:zcorba/Bench/File:1.0", "BenchFile",
	&orb.Operation{
		Name:       "read",
		Idempotent: true,
		Result:     typecode.TCZCOctetSeq,
	},
)

// benchFileServant serves one pre-written file as a file-backed reply
// payload; on a kzc data plane the ORB ships it with sendfile.
type benchFileServant struct {
	path string
	size int64
}

func (s *benchFileServant) Interface() *orb.Interface { return benchFileIface }

func (s *benchFileServant) Invoke(op string, args []any) (any, []any, error) {
	fh, err := os.Open(s.path)
	if err != nil {
		return nil, nil, err
	}
	f, err := zcbuf.WrapFile(fh, 0, s.size)
	if err != nil {
		_ = fh.Close()
		return nil, nil, err
	}
	return f, nil, nil
}

func benchFileTransfer(b *testing.B, dataAddr string) {
	const size = 1 << 20
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 31)
	}
	path := filepath.Join(b.TempDir(), "payload.bin")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		b.Fatal(err)
	}
	server, err := orb.New(orb.Options{
		Transport: zcStack(), ZeroCopy: true, DataListenAddr: dataAddr,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Activate("file", &benchFileServant{path: path, size: size})
	if err != nil {
		b.Fatal(err)
	}
	client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		b.Fatal(err)
	}
	op := benchFileIface.Ops["read"]
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := cref.Invoke(op, nil)
		if err != nil {
			b.Fatal(err)
		}
		buf := res.(*zcbuf.Buffer)
		if buf.Len() != size {
			b.Fatalf("short read: %d", buf.Len())
		}
		buf.Release()
	}
	b.StopTimer()
	if dataAddr != "" {
		if n := server.Stats().KzcDeposits.Load(); n == 0 {
			b.Fatal("no kernel-assist deposits: sendfile path not taken")
		}
	}
}

// BenchmarkKzc_FileTransfer1M fetches a 1 MiB file whose body goes
// disk→wire with sendfile: the server never touches the payload in
// user space. This is the acceptance point that must beat the tcp://
// baseline below.
func BenchmarkKzc_FileTransfer1M(b *testing.B) {
	benchFileTransfer(b, "kzc://127.0.0.1:0")
}

// BenchmarkKzc_FileTransfer1M_TCPBaseline is the same fetch over the
// plain tcp:// data plane: with no sendfile there the ORB materializes
// the file into user space and deposits it as copied bytes.
func BenchmarkKzc_FileTransfer1M_TCPBaseline(b *testing.B) {
	benchFileTransfer(b, "")
}
