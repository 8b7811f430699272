// Package bench is the benchmark harness of EXPERIMENTS.md: one
// testing.B benchmark per table and figure of the paper's evaluation
// (§5). Each benchmark reports B/op-style throughput via SetBytes, so
//
//	go test -bench=. -benchmem
//
// prints the measured MB/s of every configuration on this machine.
// The absolute 1999-testbed numbers come from internal/simnet (see
// cmd/figures); these benchmarks establish the *relative* claims on
// real Go code: the zero-copy ORB tracks raw sockets, the standard ORB
// trails far behind, and the copying stack costs what the model says
// it costs.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zcorba/internal/framework"
	"zcorba/internal/media"
	"zcorba/internal/mpeg"
	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/ttcp"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// benchSizes is the subset of the paper's sweep used for benchmarks
// (the full 13-point sweep runs via cmd/figures -measure).
var benchSizes = []int{4 << 10, 64 << 10, 1 << 20, 4 << 20}

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dM", n>>20)
	}
	return fmt.Sprintf("%dK", n>>10)
}

// stdStack emulates the standard (copying) kernel TCP path.
func stdStack() transport.Transport {
	return &transport.Copying{Inner: &transport.TCP{}, SendCopies: 1, RecvCopies: 1}
}

// zcStack is the zero-copy stack: plain TCP with gather writes and
// deposit reads (no user-space copies at all).
func zcStack() transport.Transport { return &transport.TCP{} }

// benchSocket measures the raw-socket TTCP over the given stack.
func benchSocket(b *testing.B, tr transport.Transport) {
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			sink, err := ttcp.NewSocketSink(tr, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			b.SetBytes(int64(size))
			b.ResetTimer()
			if _, err := ttcp.SocketSend(tr, sink.Addr(), size, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchCorba measures the CORBA TTCP for the given stack and ORB path.
func benchCorba(b *testing.B, mk func() transport.Transport, zeroCopy bool) {
	for _, size := range benchSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			sink, err := ttcp.NewCorbaSink(mk(), zeroCopy, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			client, err := orb.New(orb.Options{Transport: mk(), ZeroCopy: zeroCopy})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Shutdown()
			b.SetBytes(int64(size))
			b.ResetTimer()
			if _, err := ttcp.CorbaSend(client, sink.IOR, size, b.N, zeroCopy); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if zeroCopy {
				if n := client.Stats().PayloadCopyBytes.Load() +
					sink.ORB.Stats().PayloadCopyBytes.Load(); n != 0 {
					b.Fatalf("zero-copy bench copied %d payload bytes", n)
				}
			}
		})
	}
}

// --- Gathered deposits: N-buffer trains vs sequential deposits -------------

// gatherBlock is the per-segment payload of the gather series (the
// acceptance point is 8×128 KiB per train).
const gatherBlock = 128 << 10

// benchGatherTrain measures one train of segs ZC buffers per op (one
// call with segs ZC arguments) on the tcp:// plane: one vectored
// control write and one reply per train. Trains run with window 2,
// each window slot reusing its buffers once its previous train's reply
// is collected. The run asserts the single-writev-per-train contract
// from the client's transport counters: exactly one write per train,
// carrying the message and every segment.
func benchGatherTrain(b *testing.B, segs, block int) {
	cst := &transport.Stats{}
	sink, err := ttcp.NewCorbaSinkConfig(ttcp.SinkConfig{
		Transport: zcStack(), ZeroCopy: true, GatherSegs: segs,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: &transport.TCP{Stats: cst}, ZeroCopy: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	// Warm the connection and pools so the counter window below covers
	// steady-state trains only.
	if _, err := ttcp.CorbaSendGather(client, sink.GatherIOR, block, 4, segs, 2); err != nil {
		b.Fatal(err)
	}
	w0 := cst.Snapshot().Writes
	b.SetBytes(int64(segs) * int64(block))
	b.ResetTimer()
	if _, err := ttcp.CorbaSendGather(client, sink.GatherIOR, block, b.N, segs, 2); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if n := client.Stats().PayloadCopyBytes.Load() +
		sink.ORB.Stats().PayloadCopyBytes.Load(); n != 0 {
		b.Fatalf("gather bench copied %d payload bytes", n)
	}
	// One vectored control write per train; any more means a train
	// was split into multiple syscalls.
	if dw := cst.Snapshot().Writes - w0; dw != int64(b.N) {
		b.Fatalf("%d writes for %d trains, want exactly 1 per train", dw, b.N)
	}
}

func BenchmarkGather_2seg(b *testing.B)  { benchGatherTrain(b, 2, gatherBlock) }
func BenchmarkGather_8seg(b *testing.B)  { benchGatherTrain(b, 8, gatherBlock) }
func BenchmarkGather_32seg(b *testing.B) { benchGatherTrain(b, 32, gatherBlock) }

// BenchmarkGatherSmall_8seg is the overhead-dominated point of the
// series: 8×16 KiB trains, where the per-request costs the train
// amortizes (request marshal, dispatch, reply, lease bookkeeping)
// outweigh the payload copies. This is the regime the paper's
// crossover argument targets; the 128 KiB points above are
// memory-bandwidth-bound on a loopback host (see docs/PERF.md).
func BenchmarkGatherSmall_8seg(b *testing.B) { benchGatherTrain(b, 8, 16<<10) }

// BenchmarkGather_Sequential8 is the baseline the 8-segment train is
// measured against: the same 8×128 KiB payload sent as 8 sequential
// single-buffer deposits (one zput round trip each). The acceptance
// bar is Gather_8seg ≥ 2× this configuration's ops/sec.
func BenchmarkGather_Sequential8(b *testing.B) {
	sink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	b.SetBytes(8 * gatherBlock)
	b.ResetTimer()
	if _, err := ttcp.CorbaSend(client, sink.IOR, gatherBlock, 8*b.N, true); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGatherSmall_Sequential8 is the sequential baseline for the
// 16 KiB train point.
func BenchmarkGatherSmall_Sequential8(b *testing.B) {
	sink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	b.SetBytes(8 * 16 << 10)
	b.ResetTimer()
	if _, err := ttcp.CorbaSend(client, sink.IOR, 16<<10, 8*b.N, true); err != nil {
		b.Fatal(err)
	}
}

// --- Figure 5: raw TCP vs unmodified CORBA (standard stack) ---------------

func BenchmarkFig5_RawTCP(b *testing.B)        { benchSocket(b, stdStack()) }
func BenchmarkFig5_CorbaStandard(b *testing.B) { benchCorba(b, stdStack, false) }

// --- Figure 6 left: standard vs zero-copy TCP stack (sockets) -------------

func BenchmarkFig6Left_StdTCP(b *testing.B) { benchSocket(b, stdStack()) }
func BenchmarkFig6Left_ZCTCP(b *testing.B)  { benchSocket(b, zcStack()) }

// --- Figure 6 right: standard ORB vs zero-copy ORB -------------------------

func BenchmarkFig6Right_CorbaStandard(b *testing.B)   { benchCorba(b, stdStack, false) }
func BenchmarkFig6Right_ZCCorbaStdStack(b *testing.B) { benchCorba(b, stdStack, true) }
func BenchmarkFig6Right_ZCCorbaZCStack(b *testing.B)  { benchCorba(b, zcStack, true) }

// --- E7 ablation: where does the win come from? ----------------------------

// BenchmarkAblation_GeneralMarshalLoop is the unmodified path: the
// TypeCode interpreter's per-element loop plus the demarshal copy.
func BenchmarkAblation_GeneralMarshalLoop(b *testing.B) { benchCorba(b, zcStack, false) }

// BenchmarkAblation_ZCTypeFallback sends ZC-typed parameters between
// ORBs without the extension enabled: the type system falls back to
// standard marshaling (interoperability path), isolating the cost the
// deposit machinery removes.
func BenchmarkAblation_ZCTypeFallback(b *testing.B) {
	size := 1 << 20
	sink, err := ttcp.NewCorbaSink(zcStack(), false, nil) // extension off
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: false})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	b.SetBytes(int64(size))
	b.ResetTimer()
	if _, err := ttcp.CorbaSend(client, sink.IOR, size, b.N, true); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if client.Stats().ZCFallbacks.Load() == 0 {
		b.Fatal("fallback path was not exercised")
	}
}

// BenchmarkAblation_FullZeroCopy is marshal bypass + direct deposit.
func BenchmarkAblation_FullZeroCopy(b *testing.B) {
	size := 1 << 20
	sink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	b.SetBytes(int64(size))
	b.ResetTimer()
	if _, err := ttcp.CorbaSend(client, sink.IOR, size, b.N, true); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblation_Collocation is the §2.1 local-call bypass: same
// process, no marshaling, no wire.
func BenchmarkAblation_Collocation(b *testing.B) {
	size := 1 << 20
	o, err := orb.New(orb.Options{Transport: &transport.InProc{}, Collocation: true})
	if err != nil {
		b.Fatal(err)
	}
	defer o.Shutdown()
	impl := &benchStore{}
	ref, err := o.Activate("store", media.Media_StoreSkeleton{Impl: impl})
	if err != nil {
		b.Fatal(err)
	}
	stub := media.Media_StoreStub{Ref: ref}
	payload := zcbuf.Wrap(make([]byte, size))
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Zput(payload); err != nil {
			b.Fatal(err)
		}
	}
}

type benchStore struct{ n uint64 }

func (s *benchStore) GetReceived() (uint64, error) { return s.n, nil }
func (s *benchStore) Put(p []byte) (uint32, error) {
	s.n += uint64(len(p))
	return uint32(len(p)), nil
}
func (s *benchStore) Zput(p *zcbuf.Buffer) (uint32, error) {
	s.n += uint64(p.Len())
	return uint32(p.Len()), nil
}
func (s *benchStore) Get(n uint32) ([]byte, error) { return make([]byte, n), nil }
func (s *benchStore) Zget(n uint32) (*zcbuf.Buffer, error) {
	return zcbuf.Wrap(make([]byte, n)), nil
}
func (s *benchStore) Describe(seq uint32) (media.Media_FrameInfo, error) {
	return media.Media_FrameInfo{Seq: seq}, nil
}
func (s *benchStore) Reset() error { s.n = 0; return nil }

// --- E6: the §5.4 transcoder farm ------------------------------------------

func benchTranscoder(b *testing.B, zc bool) {
	nsORB, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		b.Fatal(err)
	}
	defer nsORB.Shutdown()
	nsIOR, err := naming.Serve(nsORB)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 3
	for i := 0; i < workers; i++ {
		w, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Shutdown()
		nc, err := naming.Connect(w, nsIOR)
		if err != nil {
			b.Fatal(err)
		}
		if err := framework.StartWorker(w, nc, fmt.Sprintf("enc-%d", i), 8); err != nil {
			b.Fatal(err)
		}
	}
	master, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
	if err != nil {
		b.Fatal(err)
	}
	defer master.Shutdown()
	nc, err := naming.Connect(master, nsIOR)
	if err != nil {
		b.Fatal(err)
	}
	farm, err := framework.Discover(master, nc)
	if err != nil {
		b.Fatal(err)
	}
	const w, h = 480, 272
	b.SetBytes(int64(mpeg.FrameBytes(w, h)))
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := b.N - done
		if batch > 32 {
			batch = 32
		}
		b.StopTimer()
		src := mpeg.NewMPEG2Source(w, h)
		frames, err := framework.SourceFrames(src, batch)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		results, _, err := farm.Transcode(frames)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, r := range results {
			r.Data.Release()
		}
		b.StartTimer()
		done += batch
	}
}

func BenchmarkTranscoderZeroCopy(b *testing.B) { benchTranscoder(b, true) }
func BenchmarkTranscoderStandard(b *testing.B) { benchTranscoder(b, false) }

// --- Request rate: per-request software overhead ---------------------------

// benchWindows are the pipelining depths of the request-rate series:
// window 1 is one request per round trip; deeper windows keep the pipe
// full and expose the per-request software overhead directly.
var benchWindows = []int{1, 8, 32}

// BenchmarkRequestRate_ZC4K sends 4 KiB zero-copy blocks at each
// window depth. allocs/op here is the steady-state allocation count of
// the whole request/reply engine (client and server share the
// process); docs/PERF.md records the gated budget.
func BenchmarkRequestRate_ZC4K(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			sink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Shutdown()
			b.SetBytes(4 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := ttcp.CorbaSendWindow(client, sink.IOR, 4<<10, b.N, w, true); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if n := client.Stats().PayloadCopyBytes.Load() +
				sink.ORB.Stats().PayloadCopyBytes.Load(); n != 0 {
				b.Fatalf("zero-copy bench copied %d payload bytes", n)
			}
		})
	}
}

// BenchmarkRequestRate_SharedConn invokes 4 KiB zput from every
// goroutine of b.RunParallel (GOMAXPROCS of them, set by -cpu) on one
// ObjectRef: synchronous calls that all share one client connection and
// its reply table.
func BenchmarkRequestRate_SharedConn(b *testing.B) {
	sink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	ref, err := client.StringToObject(sink.IOR)
	if err != nil {
		b.Fatal(err)
	}
	op := media.Media_StoreIface.Ops["zput"]
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf, err := client.Pool().Get(4 << 10)
		if err != nil {
			b.Error(err)
			return
		}
		defer buf.Release()
		args := []any{buf}
		for pb.Next() {
			res, _, err := ref.Invoke(op, args)
			if err != nil {
				b.Error(err)
				return
			}
			if n, _ := res.(uint32); n != 4<<10 {
				b.Errorf("acknowledged %d of %d bytes", n, 4<<10)
				return
			}
		}
	})
	b.StopTimer()
	if n := client.Stats().PayloadCopyBytes.Load() +
		sink.ORB.Stats().PayloadCopyBytes.Load(); n != 0 {
		b.Fatalf("zero-copy bench copied %d payload bytes", n)
	}
}

// BenchmarkRequestRate_Ping invokes the no-payload _get_received
// attribute at each window depth: pure per-request GIOP overhead, no
// payload at all.
func BenchmarkRequestRate_Ping(b *testing.B) {
	for _, w := range benchWindows {
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			sink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			client, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Shutdown()
			ref, err := client.StringToObject(sink.IOR)
			if err != nil {
				b.Fatal(err)
			}
			p := ref.Pipeline(media.Media_StoreIface.Ops["_get_received"], w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Submit(nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- micro: the marshal engine itself --------------------------------------

// BenchmarkMarshalLoop measures the general per-element interpreter
// (the copy the paper's Figure 5 blames) against a block copy.
func BenchmarkMarshalLoop(b *testing.B) {
	o, err := orb.New(orb.Options{Transport: &transport.InProc{}})
	if err != nil {
		b.Fatal(err)
	}
	defer o.Shutdown()
	_ = o
	b.Run("general-1M", func(b *testing.B) {
		payload := make([]byte, 1<<20)
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			sinkMarshal(payload)
		}
	})
	b.Run("blockcopy-1M", func(b *testing.B) {
		payload := make([]byte, 1<<20)
		dst := make([]byte, 1<<20)
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			copy(dst, payload)
		}
	})
}

//go:noinline
func sinkMarshal(p []byte) {
	// Mirror of the interpreter's per-element loop shape.
	buf := marshalScratch[:0]
	for _, x := range p {
		buf = append(buf, x)
	}
	marshalScratch = buf
}

var marshalScratch = make([]byte, 0, 1<<20)

// --- file transfer: sendfile on the tcp data plane ---------------------------

var benchFileIface = orb.NewInterface("IDL:zcorba/Bench/File:1.0", "BenchFile",
	&orb.Operation{
		Name:       "read",
		Idempotent: true,
		Result:     typecode.TCZCOctetSeq,
	},
)

// benchFileServant serves one pre-written file as a file-backed reply
// payload, which the tcp data plane ships with sendfile.
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

// BenchmarkFileTransfer1M fetches a 1 MiB file whose body goes
// disk→wire with sendfile: the server never touches the payload in
// user space, so B/op stays in the kilobytes instead of the megabyte a
// materialized reply costs.
func BenchmarkFileTransfer1M(b *testing.B) {
	const size = 1 << 20
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 31)
	}
	path := filepath.Join(b.TempDir(), "payload.bin")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		b.Fatal(err)
	}
	server, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
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
	if n := server.Stats().PayloadCopyBytes.Load(); n != 0 {
		b.Fatalf("server copied %d payload bytes: sendfile path not taken", n)
	}
}
