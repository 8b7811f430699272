package ttcp

import (
	"strings"
	"testing"
	"time"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

func TestSocketBenchRoundTrip(t *testing.T) {
	tr := &transport.TCP{}
	sink, err := NewSocketSink(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	res, err := SocketSend(tr, sink.Addr(), 64<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 8*64<<10 {
		t.Fatalf("bytes=%d", res.Bytes)
	}
	if res.Mbps() <= 0 {
		t.Fatalf("throughput %v", res.Mbps())
	}
	if res.Mode != ModeRawSocket || res.Stack != "tcp" {
		t.Fatalf("labels %q %q", res.Mode, res.Stack)
	}
}

func TestSocketBenchOverCopyingStack(t *testing.T) {
	st := &transport.Stats{}
	tr := &transport.Copying{Inner: &transport.TCP{}, SendCopies: 1, RecvCopies: 1, Stats: st}
	sink, err := NewSocketSink(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	res, err := SocketSend(tr, sink.Addr(), 32<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 4*32<<10 {
		t.Fatalf("bytes=%d", res.Bytes)
	}
	// The copying stack must actually have churned payload bytes.
	if st.EmulatedCopyBytes.Load() < res.Bytes {
		t.Fatalf("copying stack churned only %d bytes", st.EmulatedCopyBytes.Load())
	}
}

func TestCorbaBenchStandardAndZC(t *testing.T) {
	for _, zc := range []bool{false, true} {
		tr := &transport.TCP{}
		sink, err := NewCorbaSink(tr, zc, nil)
		if err != nil {
			t.Fatal(err)
		}
		client, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := CorbaSend(client, sink.IOR, 256<<10, 4, zc)
		if err != nil {
			t.Fatalf("zc=%v: %v", zc, err)
		}
		if res.Bytes != 4*256<<10 {
			t.Fatalf("bytes=%d", res.Bytes)
		}
		copies := client.Stats().PayloadCopyBytes.Load() +
			sink.ORB.Stats().PayloadCopyBytes.Load()
		if zc && copies != 0 {
			t.Fatalf("ZC CORBA bench copied %d payload bytes", copies)
		}
		if !zc && copies < res.Bytes {
			t.Fatalf("standard CORBA bench copied only %d bytes", copies)
		}
		client.Shutdown()
		sink.Close()
	}
}

// TestCorbaBenchGather runs the gathered-deposit tier end to end: the
// sink serves a zputv gather sink, and each windowed train carries its
// buffers copy-free through one call with four ZC arguments.
func TestCorbaBenchGather(t *testing.T) {
	sink, err := NewCorbaSinkConfig(SinkConfig{
		Transport: &transport.TCP{}, ZeroCopy: true, GatherSegs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if sink.GatherIOR == "" {
		t.Fatal("gather sink IOR not published")
	}
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	res, err := CorbaSendGather(client, sink.GatherIOR, 32<<10, 6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeGatherCorba {
		t.Fatalf("mode %q", res.Mode)
	}
	if res.Bytes != 6*4*32<<10 {
		t.Fatalf("bytes=%d", res.Bytes)
	}
	if res.Blocks != 24 {
		t.Fatalf("blocks=%d", res.Blocks)
	}
	st := client.Stats()
	if got := st.GatherDeposits.Load(); got != 6 {
		t.Fatalf("GatherDeposits=%d, want 6", got)
	}
	if got := st.GatherSegments.Load(); got != 24 {
		t.Fatalf("GatherSegments=%d, want 24", got)
	}
	copies := st.PayloadCopyBytes.Load() + sink.ORB.Stats().PayloadCopyBytes.Load()
	if copies != 0 {
		t.Fatalf("gather bench copied %d payload bytes", copies)
	}
	if got := sink.ORB.Stats().GatherScatters.Load(); got != 6 {
		t.Fatalf("sink GatherScatters=%d, want 6", got)
	}
}

func TestResultFormatting(t *testing.T) {
	r := Result{Mode: ModeCorba, Stack: "orb", BlockSize: 4096, Blocks: 2,
		Bytes: 1e6, Elapsed: time.Second}
	if r.Mbps() != 8.0 {
		t.Fatalf("Mbps=%v", r.Mbps())
	}
	s := r.String()
	if !strings.Contains(s, "8.0 Mbit/s") || !strings.Contains(s, "corba") {
		t.Fatalf("format %q", s)
	}
	var zero Result
	if zero.Mbps() != 0 {
		t.Fatal("zero-elapsed result must report 0")
	}
}

func TestBlocksFor(t *testing.T) {
	if got := BlocksFor(4096, 1<<20, 4); got != 256 {
		t.Fatalf("got %d", got)
	}
	if got := BlocksFor(16<<20, 1<<20, 4); got != 4 {
		t.Fatalf("minimum not applied: %d", got)
	}
}

func TestPaperSweep(t *testing.T) {
	sizes := PaperSweep()
	if sizes[0] != 4<<10 || sizes[len(sizes)-1] != 16<<20 {
		t.Fatalf("sweep %v", sizes)
	}
	if len(sizes) != 13 {
		t.Fatalf("%d points", len(sizes))
	}
}

func TestCorbaLatency(t *testing.T) {
	for _, zc := range []bool{false, true} {
		tr := &transport.TCP{}
		sink, err := NewCorbaSink(tr, zc, nil)
		if err != nil {
			t.Fatal(err)
		}
		client, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := CorbaLatency(client, sink.IOR, 4096, 50, zc)
		if err != nil {
			t.Fatalf("zc=%v: %v", zc, err)
		}
		if res.Mean <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
			t.Fatalf("distribution %+v", res)
		}
		if res.Samples != 50 {
			t.Fatalf("samples %d", res.Samples)
		}
		if s := res.String(); !strings.Contains(s, "block 4096") {
			t.Fatalf("format %q", s)
		}
		client.Shutdown()
		sink.Close()
	}
}

func TestCrossover(t *testing.T) {
	stdSink, err := NewCorbaSink(&transport.TCP{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stdSink.Close()
	zcSink, err := NewCorbaSink(&transport.TCP{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer zcSink.Close()
	stdClient, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer stdClient.Shutdown()
	zcClient, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer zcClient.Shutdown()
	points, err := Crossover(stdClient, stdSink.IOR, zcClient, zcSink.IOR,
		[]int{1024, 64 << 10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].BlockSize != 1024 {
		t.Fatalf("points %+v", points)
	}
	for _, p := range points {
		if p.Standard <= 0 || p.ZeroCopy <= 0 {
			t.Fatalf("point %+v", p)
		}
	}
}

func TestCorbaLatencyBadSamples(t *testing.T) {
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	if _, err := CorbaLatency(client, "IOR:00", 64, 0, false); err == nil {
		t.Fatal("want error for zero samples")
	}
}
