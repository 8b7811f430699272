// Transcoder: the paper's §5.4 technology demonstrator — a real-time
// MPEG-2 to MPEG-4 transcoding farm built on the zero-copy ORB and the
// service-based parallelization framework.
//
//	go run ./examples/transcoder [-workers 4] [-frames 100] [-w 960 -h 544] [-standard]
//
// A master decodes a synthetic MPEG-2 stream, distributes raw frames
// to encoder objects (each in its own ORB, as cluster nodes would be)
// through CORBA requests, and collects the MPEG-4 output. With the
// default zero-copy ORBs every frame travels by direct deposit; pass
// -standard to force the copying marshal path and compare, or -gather
// to ship each frame's metadata and payload as one gathered deposit
// train (encode_zc: a single vectored write per frame).
package main

import (
	"flag"
	"fmt"
	"log"

	"zcorba/internal/framework"
	"zcorba/internal/mpeg"
	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

func main() {
	workers := flag.Int("workers", 4, "number of encoder workers")
	frames := flag.Int("frames", 100, "frames to transcode")
	width := flag.Int("w", 960, "frame width (multiple of 8)")
	height := flag.Int("h", 544, "frame height (multiple of 8)")
	quality := flag.Int("q", 4, "encoder quantization step")
	standard := flag.Bool("standard", false, "disable the zero-copy extension (standard marshaling)")
	gather := flag.Bool("gather", false, "send frame metadata and payload as one gathered deposit train (encode_zc, a single vectored write per frame)")
	flag.Parse()
	zc := !*standard
	if *gather && *standard {
		log.Fatal("-gather needs the zero-copy extension; drop -standard")
	}

	// Naming service for worker discovery.
	nsORB, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		log.Fatal(err)
	}
	defer nsORB.Shutdown()
	nsIOR, err := naming.Serve(nsORB)
	if err != nil {
		log.Fatal(err)
	}

	// One ORB per worker, as on a cluster node.
	var workerORBs []*orb.ORB
	for i := 0; i < *workers; i++ {
		w, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
		if err != nil {
			log.Fatal(err)
		}
		defer w.Shutdown()
		workerORBs = append(workerORBs, w)
		nc, err := naming.Connect(w, nsIOR)
		if err != nil {
			log.Fatal(err)
		}
		if err := framework.StartWorker(w, nc, fmt.Sprintf("enc-%02d", i), *quality); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("farm: %d encoder objects registered (zero-copy=%v)\n", *workers, zc)

	// Master: source, farm, run.
	master, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Shutdown()
	nc, err := naming.Connect(master, nsIOR)
	if err != nil {
		log.Fatal(err)
	}
	farm, err := framework.Discover(master, nc)
	if err != nil {
		log.Fatal(err)
	}
	farm.Gather = *gather
	if *gather {
		fmt.Println("farm: gathered deposits on (frame+metadata = one vectored write)")
	}

	src := mpeg.NewMPEG2Source(*width, *height)
	work, err := framework.SourceFrames(src, *frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("master: sourcing %d %dx%d frames (%.1f MB of raw video)\n",
		*frames, *width, *height, float64(*frames*mpeg.FrameBytes(*width, *height))/1e6)

	results, st, err := farm.Transcode(work)
	if err != nil {
		log.Fatal(err)
	}

	// Quality spot check on the first frame.
	first := results[0]
	_, _, back, err := mpeg.Decode(first.Data.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	orig := mpeg.SyntheticFrame(*width, *height, first.Info.Seq)
	psnr := mpeg.PSNR(orig, back)
	perWorker := map[int]int{}
	for _, r := range results {
		perWorker[r.Worker]++
		r.Data.Release()
	}

	fmt.Printf("\nresults: %d frames in %.2fs -> %.1f fps (real-time target %d fps: %v)\n",
		st.Frames, st.Elapsed.Seconds(), st.FPS(), mpeg.FrameRate, st.RealTime())
	fmt.Printf("         in %.1f MB, out %.1f MB (compression %.1fx), first-frame PSNR %.1f dB\n",
		float64(st.InBytes)/1e6, float64(st.OutBytes)/1e6,
		float64(st.InBytes)/float64(st.OutBytes), psnr)
	fmt.Printf("         frames per worker: %v\n", perWorker)

	ms := master.Stats()
	fmt.Printf("\nmaster ORB: deposits sent=%d (%d bytes), payload copies=%d (%d bytes), fallbacks=%d\n",
		ms.DepositsSent.Load(), ms.DepositBytesSent.Load(),
		ms.PayloadCopies.Load(), ms.PayloadCopyBytes.Load(), ms.ZCFallbacks.Load())
	if *gather {
		fmt.Printf("master ORB: gather trains=%d (%d segments)\n",
			ms.GatherDeposits.Load(), ms.GatherSegments.Load())
	}
	if zc && ms.PayloadCopyBytes.Load() == 0 {
		fmt.Println("zero-copy regime held: no user-space payload copies end to end")
	}
}
