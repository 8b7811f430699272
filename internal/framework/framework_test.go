package framework

import (
	"strings"
	"testing"

	"zcorba/internal/media"
	"zcorba/internal/mpeg"
	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// cluster starts a naming service plus n worker ORBs and a master ORB,
// all over TCP with the zero-copy extension per the zc flag.
func cluster(t *testing.T, n int, zc bool) (*orb.ORB, *naming.Client) {
	t.Helper()
	nsORB, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nsORB.Shutdown)
	nsIOR, err := naming.Serve(nsORB)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		w, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Shutdown)
		wnc, err := naming.Connect(w, nsIOR)
		if err != nil {
			t.Fatal(err)
		}
		if err := StartWorker(w, wnc, nameFor(i), 4); err != nil {
			t.Fatal(err)
		}
	}

	master, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Shutdown)
	mnc, err := naming.Connect(master, nsIOR)
	if err != nil {
		t.Fatal(err)
	}
	return master, mnc
}

func nameFor(i int) string {
	return "enc-" + string(rune('a'+i))
}

func TestFarmTranscodesFrames(t *testing.T) {
	master, nc := cluster(t, 3, true)
	farm, err := Discover(master, nc)
	if err != nil {
		t.Fatal(err)
	}
	if farm.Size() != 3 {
		t.Fatalf("farm size %d", farm.Size())
	}
	src := mpeg.NewMPEG2Source(320, 240)
	frames, err := SourceFrames(src, 12)
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := farm.Transcode(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 12 || st.InBytes != int64(12*320*240) {
		t.Fatalf("stats %+v", st)
	}
	if st.OutBytes <= 0 || st.OutBytes >= st.InBytes {
		t.Fatalf("no compression: in=%d out=%d", st.InBytes, st.OutBytes)
	}
	workersUsed := map[int]bool{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("frame %d: %v", i, r.Err)
		}
		if r.Info.Seq != uint32(i) {
			t.Fatalf("result %d has seq %d", i, r.Info.Seq)
		}
		// Every encoded frame must decode to near the original.
		w, h, back, err := mpeg.Decode(r.Data.Bytes())
		if err != nil || w != 320 || h != 240 {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		orig := mpeg.SyntheticFrame(320, 240, r.Info.Seq)
		if psnr := mpeg.PSNR(orig, back); psnr < 20 {
			t.Fatalf("frame %d PSNR %.1f", i, psnr)
		}
		workersUsed[r.Worker] = true
		r.Data.Release()
	}
	if len(workersUsed) < 2 {
		t.Fatalf("only %d workers used", len(workersUsed))
	}
	if st.FPS() <= 0 {
		t.Fatal("fps not measured")
	}
}

func TestFarmZeroCopyMakesNoPayloadCopies(t *testing.T) {
	master, nc := cluster(t, 2, true)
	farm, err := Discover(master, nc)
	if err != nil {
		t.Fatal(err)
	}
	src := mpeg.NewMPEG2Source(256, 128)
	frames, err := SourceFrames(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := farm.Transcode(frames); err != nil {
		t.Fatal(err)
	}
	if n := master.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("master copied %d payload bytes on ZC farm", n)
	}
	if master.Stats().DepositsSent.Load() == 0 {
		t.Fatal("no deposits were used")
	}
}

// TestFarmGatherTranscodesFrames drives the farm in gather mode: every
// frame's metadata and payload travel as one encode_zc deposit train,
// still copy-free end to end.
func TestFarmGatherTranscodesFrames(t *testing.T) {
	master, nc := cluster(t, 2, true)
	farm, err := Discover(master, nc)
	if err != nil {
		t.Fatal(err)
	}
	farm.Gather = true
	src := mpeg.NewMPEG2Source(320, 240)
	frames, err := SourceFrames(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := farm.Transcode(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 8 || st.InBytes != int64(8*320*240) {
		t.Fatalf("stats %+v", st)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("frame %d: %v", i, r.Err)
		}
		if r.Info.Seq != uint32(i) {
			t.Fatalf("result %d has seq %d", i, r.Info.Seq)
		}
		w, h, back, err := mpeg.Decode(r.Data.Bytes())
		if err != nil || w != 320 || h != 240 {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		orig := mpeg.SyntheticFrame(320, 240, r.Info.Seq)
		if psnr := mpeg.PSNR(orig, back); psnr < 20 {
			t.Fatalf("frame %d PSNR %.1f", i, psnr)
		}
		r.Data.Release()
	}
	ms := master.Stats()
	if got := ms.GatherDeposits.Load(); got != 8 {
		t.Fatalf("GatherDeposits=%d, want 8 (one train per frame)", got)
	}
	if got := ms.GatherSegments.Load(); got != 16 {
		t.Fatalf("GatherSegments=%d, want 16 (meta+frame per train)", got)
	}
	if n := ms.PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("master copied %d payload bytes in gather mode", n)
	}
}

func TestFarmErrorPropagation(t *testing.T) {
	master, nc := cluster(t, 1, false)
	farm, err := Discover(master, nc)
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose claimed geometry mismatches its data raises the
	// typed TransferError from the worker.
	bad := Frame{
		Info: media.Media_FrameInfo{Seq: 0, Width: 64, Height: 64},
		Data: zcbuf.Wrap(make([]byte, 16)),
	}
	results, _, err := farm.Transcode([]Frame{bad})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "frame is 16 bytes") {
		t.Fatalf("error %v", err)
	}
	if results[0].Err == nil {
		t.Fatal("result error missing")
	}
}

func TestDiscoverEmpty(t *testing.T) {
	master, nc := cluster(t, 0, false)
	if _, err := Discover(master, nc); err == nil {
		t.Fatal("want error for empty farm")
	}
}

func TestEmptyFarmTranscode(t *testing.T) {
	f := &Farm{}
	if _, _, err := f.Transcode(nil); err == nil {
		t.Fatal("want error")
	}
}

func TestStatsRealTime(t *testing.T) {
	st := Stats{Frames: 100, Elapsed: 1e9} // 100 frames in 1s
	if !st.RealTime() {
		t.Fatal("100 fps is real-time")
	}
	st2 := Stats{Frames: 10, Elapsed: 1e9}
	if st2.RealTime() {
		t.Fatal("10 fps is not real-time")
	}
	var zero Stats
	if zero.FPS() != 0 {
		t.Fatal("zero stats fps")
	}
}

func TestTranscodeStream(t *testing.T) {
	master, nc := cluster(t, 2, true)
	farm, err := Discover(master, nc)
	if err != nil {
		t.Fatal(err)
	}
	src := mpeg.NewMPEG2Source(192, 96)
	const n = 10
	in := make(chan Frame)
	results, err := farm.TranscodeStream(in)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(in)
		frames, err := SourceFrames(src, n)
		if err != nil {
			t.Error(err)
			return
		}
		for _, fr := range frames {
			in <- fr
		}
	}()
	seen := map[uint32]bool{}
	for res := range results {
		if res.Err != nil {
			t.Fatalf("frame %d: %v", res.Info.Seq, res.Err)
		}
		if seen[res.Info.Seq] {
			t.Fatalf("frame %d delivered twice", res.Info.Seq)
		}
		seen[res.Info.Seq] = true
		w, h, _, err := mpeg.Decode(res.Data.Bytes())
		if err != nil || w != 192 || h != 96 {
			t.Fatalf("frame %d decode: %v", res.Info.Seq, err)
		}
		res.Data.Release()
	}
	if len(seen) != n {
		t.Fatalf("delivered %d of %d frames", len(seen), n)
	}
}

func TestTranscodeStreamEmptyFarm(t *testing.T) {
	f := &Farm{}
	if _, err := f.TranscodeStream(make(chan Frame)); err == nil {
		t.Fatal("want error")
	}
}

// TestFarmSurvivesWorkerConnectionKill kills one master→worker control
// connection mid-run (seeded fault injector, no ORB-level retry policy)
// and asserts the farm still delivers every frame: the frames stranded
// on the dead connection are redistributed to the surviving workers.
func TestFarmSurvivesWorkerConnectionKill(t *testing.T) {
	const n = 3
	inj := transport.NewFaultInjector(55).
		Add(transport.Rule{Op: transport.OpWrite, Class: transport.ClassControl,
			Kind: transport.FaultReset, Nth: 7})
	master, err := orb.New(orb.Options{
		Transport: &transport.Faulty{Inner: &transport.TCP{}, Inj: inj},
		ZeroCopy:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Shutdown)

	stubs := make([]media.Media_EncoderStub, 0, n)
	for i := 0; i < n; i++ {
		w, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Shutdown)
		ref, err := w.Activate(nameFor(i), media.Media_EncoderSkeleton{
			Impl: &EncoderServant{Enc: mpeg.Encoder{Quality: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		cref, err := master.StringToObject(ref.String())
		if err != nil {
			t.Fatal(err)
		}
		stubs = append(stubs, media.Media_EncoderStub{Ref: cref})
	}
	farm := NewFarm(stubs...)

	src := mpeg.NewMPEG2Source(320, 240)
	frames, err := SourceFrames(src, 12)
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := farm.Transcode(frames)
	if err != nil {
		t.Fatalf("transcode under connection kill: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("fault schedule never fired; test exercised nothing")
	}
	if st.Frames != 12 {
		t.Fatalf("stats %+v", st)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("frame %d lost to worker kill: %v", i, r.Err)
		}
		if r.Info.Seq != uint32(i) {
			t.Fatalf("result %d has seq %d", i, r.Info.Seq)
		}
		w, h, _, err := mpeg.Decode(r.Data.Bytes())
		if err != nil || w != 320 || h != 240 {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		r.Data.Release()
	}
	t.Logf("faults fired=%d, log=%v", inj.Fired(), inj.Log())
}
