// Command figures regenerates every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the index):
//
//	figures -fig 5         Figure 5: raw TCP vs unmodified CORBA
//	figures -fig 6l        Figure 6 left: standard vs zero-copy TCP
//	figures -fig 6r        Figure 6 right: standard vs zero-copy ORB
//	figures -table summary saturation bandwidths and the 10x headline
//	figures -table cpu     CPU utilization at wire speed (§6)
//	figures -table transcoder  the §5.4 application feasibility table
//	figures -table ablation    marshal-bypass vs direct-deposit split
//	figures -table latency     invocation latency crossover (measured)
//	figures -all           everything (default)
//
// Each series prints two columns of numbers: the modeled throughput on
// the paper's calibrated 1999 testbed (internal/simnet — these land on
// the published 50/330/550 Mbit/s envelopes) and, with -measure, a
// measured throughput from running the real Go implementation over
// loopback TCP on this machine. Absolute measured numbers reflect
// today's hardware; the claim being reproduced is the *shape*: who
// wins, by what factor, and where the curves saturate.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"zcorba/internal/framework"
	"zcorba/internal/mpeg"
	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/simnet"
	"zcorba/internal/transport"
	"zcorba/internal/ttcp"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 5, 6l, 6r")
	table := flag.String("table", "", "table to regenerate: summary, cpu, transcoder, ablation, latency")
	all := flag.Bool("all", false, "regenerate everything")
	measure := flag.Bool("measure", false, "also run the real implementation over loopback")
	target := flag.Int64("bytes", 32<<20, "bytes per measured point")
	flag.Parse()

	if *fig == "" && *table == "" {
		*all = true
	}
	r := &runner{tb: simnet.Paper(), measure: *measure, target: *target}
	ok := true
	if *all || *fig == "5" {
		ok = r.figure5() && ok
	}
	if *all || *fig == "6l" {
		ok = r.figure6Left() && ok
	}
	if *all || *fig == "6r" {
		ok = r.figure6Right() && ok
	}
	if *all || *table == "summary" {
		r.tableSummary()
	}
	if *all || *table == "cpu" {
		r.tableCPU()
	}
	if *all || *table == "ablation" {
		r.tableAblation()
	}
	if *all || *table == "transcoder" {
		ok = r.tableTranscoder() && ok
	}
	if *table == "latency" || (*all && *measure) {
		ok = r.tableLatency() && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// tableLatency measures per-invocation round-trip latency of the
// standard vs the zero-copy path over small blocks: the deposit
// architecture trades coordination latency for bulk bandwidth, and
// this table shows where the crossover falls on this host (always a
// measured table — there is nothing 1999-specific to model here).
func (r *runner) tableLatency() bool {
	fmt.Printf("\n=== Invocation latency: standard vs direct deposit (measured) ===\n")
	stdSink, err := ttcp.NewCorbaSink(zcStack(), false, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	defer stdSink.Close()
	zcSink, err := ttcp.NewCorbaSink(zcStack(), true, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	defer zcSink.Close()
	stdClient, err := orb.New(orb.Options{Transport: zcStack()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	defer stdClient.Shutdown()
	zcClient, err := orb.New(orb.Options{Transport: zcStack(), ZeroCopy: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	defer zcClient.Shutdown()

	sizes := []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	points, err := ttcp.Crossover(stdClient, stdSink.IOR, zcClient, zcSink.IOR, sizes, 200)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "block\tstandard mean\tzero-copy mean\twinner\t")
	for _, p := range points {
		winner := "zero-copy"
		if p.Standard < p.ZeroCopy {
			winner = "standard"
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%s\t\n", human(p.BlockSize), p.Standard, p.ZeroCopy, winner)
	}
	w.Flush()
	return true
}

type runner struct {
	tb      simnet.Testbed
	measure bool
	target  int64
}

// series is one plotted line.
type series struct {
	label string
	cfg   simnet.Config
	// meas measures one point with the real implementation.
	meas func(blockSize int) (float64, error)
}

func (r *runner) printFigure(title string, sizes []int, lines []series) bool {
	fmt.Printf("\n=== %s ===\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "block\t")
	for _, l := range lines {
		fmt.Fprintf(w, "%s (model Mbit/s)\t", l.label)
		if r.measure && l.meas != nil {
			fmt.Fprintf(w, "%s (measured)\t", l.label)
		}
	}
	fmt.Fprintln(w)
	ok := true
	for _, size := range sizes {
		fmt.Fprintf(w, "%s\t", human(size))
		for _, l := range lines {
			fmt.Fprintf(w, "%.1f\t", r.tb.ThroughputMbps(l.cfg.Stack, l.cfg.ORB, size))
			if r.measure && l.meas != nil {
				got, err := l.meas(size)
				if err != nil {
					fmt.Fprintf(w, "err\t")
					fmt.Fprintln(os.Stderr, "figures:", err)
					ok = false
				} else {
					fmt.Fprintf(w, "%.0f\t", got)
				}
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return ok
}

func human(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprint(n)
	}
}

// stacks used by the measured runs: the copying shim emulates the
// standard stack's kernel copies, plain TCP stands in for the
// zero-copy stack (no user-space copies at all).
func stdStack() transport.Transport {
	return &transport.Copying{Inner: &transport.TCP{}, SendCopies: 1, RecvCopies: 1}
}
func zcStack() transport.Transport { return &transport.TCP{} }

func (r *runner) measureSocket(tr transport.Transport) func(int) (float64, error) {
	return func(size int) (float64, error) {
		sink, err := ttcp.NewSocketSink(tr, "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer sink.Close()
		res, err := ttcp.SocketSend(tr, sink.Addr(), size, ttcp.BlocksFor(size, r.target, 4))
		if err != nil {
			return 0, err
		}
		return res.Mbps(), nil
	}
}

func (r *runner) measureCorba(tr func() transport.Transport, zc bool) func(int) (float64, error) {
	return func(size int) (float64, error) {
		sink, err := ttcp.NewCorbaSink(tr(), zc, nil)
		if err != nil {
			return 0, err
		}
		defer sink.Close()
		client, err := orb.New(orb.Options{Transport: tr(), ZeroCopy: zc})
		if err != nil {
			return 0, err
		}
		defer client.Shutdown()
		res, err := ttcp.CorbaSend(client, sink.IOR, size, ttcp.BlocksFor(size, r.target, 4), zc)
		if err != nil {
			return 0, err
		}
		return res.Mbps(), nil
	}
}

func (r *runner) figure5() bool {
	return r.printFigure("Figure 5: TTCP bandwidth, unoptimized sockets vs CORBA (standard stack)",
		ttcp.PaperSweep(), []series{
			{label: "raw TCP", cfg: simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBNone},
				meas: r.measureSocket(stdStack())},
			{label: "CORBA/MICO", cfg: simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBStandard},
				meas: r.measureCorba(stdStack, false)},
		})
}

func (r *runner) figure6Left() bool {
	return r.printFigure("Figure 6 (left): raw sockets, standard vs zero-copy TCP stack",
		ttcp.PaperSweep(), []series{
			{label: "TCP", cfg: simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBNone},
				meas: r.measureSocket(stdStack())},
			{label: "zero-copy TCP", cfg: simnet.Config{Stack: simnet.StackZeroCopy, ORB: simnet.ORBNone},
				meas: r.measureSocket(zcStack())},
		})
}

func (r *runner) figure6Right() bool {
	return r.printFigure("Figure 6 (right): CORBA, standard ORB vs zero-copy ORB",
		ttcp.PaperSweep(), []series{
			{label: "CORBA", cfg: simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBStandard},
				meas: r.measureCorba(stdStack, false)},
			{label: "ZC-CORBA/TCP", cfg: simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBZeroCopy},
				meas: r.measureCorba(stdStack, true)},
			{label: "ZC-CORBA/ZC-TCP", cfg: simnet.Config{Stack: simnet.StackZeroCopy, ORB: simnet.ORBZeroCopy},
				meas: r.measureCorba(zcStack, true)},
		})
}

func (r *runner) tableSummary() {
	fmt.Printf("\n=== Summary: saturation bandwidth (16 MiB blocks), modeled 1999 testbed ===\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "configuration\tMbit/s\tpaper")
	rows := []struct {
		cfg   simnet.Config
		paper string
	}{
		{simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBStandard}, "~50"},
		{simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBNone}, "~330"},
		{simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBZeroCopy}, "~raw TCP"},
		{simnet.Config{Stack: simnet.StackZeroCopy, ORB: simnet.ORBNone}, "near wire"},
		{simnet.Config{Stack: simnet.StackZeroCopy, ORB: simnet.ORBZeroCopy}, "~550"},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%s\n", row.cfg.Label(), r.tb.Saturation(row.cfg), row.paper)
	}
	fmt.Fprintf(w, "speedup (best/unmodified)\t%.1fx\t10x\n", r.tb.Speedup())
	w.Flush()
}

func (r *runner) tableCPU() {
	fmt.Printf("\n=== CPU utilization at sustained wire speed (§6) ===\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "stack\tmodeled\tpaper")
	fmt.Fprintf(w, "standard TCP/IP\t%.0f%%\t100%%\n", 100*r.tb.CPUUtilization(simnet.StackStandard))
	fmt.Fprintf(w, "zero-copy TCP/IP\t%.0f%%\t~30%%\n", 100*r.tb.CPUUtilization(simnet.StackZeroCopy))
	w.Flush()
}

func (r *runner) tableAblation() {
	fmt.Printf("\n=== Ablation (standard stack): where the ORB win comes from ===\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "ORB variant\tsaturation Mbit/s")
	for _, m := range []simnet.ORBMode{simnet.ORBStandard, simnet.ORBBypassOnly, simnet.ORBZeroCopy} {
		cfg := simnet.Config{Stack: simnet.StackStandard, ORB: m}
		fmt.Fprintf(w, "%s\t%.1f\n", m, r.tb.Saturation(cfg))
	}
	w.Flush()
	fmt.Println("(marshal bypass alone is 'required but not sufficient' (§2.1);")
	fmt.Println(" control/data separation supplies the rest of the tenfold gain)")
}

func (r *runner) tableTranscoder() bool {
	fmt.Printf("\n=== §5.4 application: real-time HDTV MPEG-2 -> MPEG-4 transcoding ===\n")
	// Feasibility arithmetic on the modeled testbed: a raw HDTV luma
	// frame is ~2 MB and real time is 25 fps, i.e. ~415 Mbit/s of
	// frame traffic into the farm.
	frame := mpeg.FrameBytes(mpeg.HDTVWidth, mpeg.HDTVHeight)
	need := float64(frame) * 8 * mpeg.FrameRate / 1e6
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "required distribution bandwidth\t%.0f Mbit/s\t(%d-byte frames @ %d fps)\n",
		need, frame, mpeg.FrameRate)
	for _, row := range []struct {
		cfg simnet.Config
	}{
		{simnet.Config{Stack: simnet.StackStandard, ORB: simnet.ORBStandard}},
		{simnet.Config{Stack: simnet.StackZeroCopy, ORB: simnet.ORBZeroCopy}},
	} {
		bw := r.tb.ThroughputMbps(row.cfg.Stack, row.cfg.ORB, frame)
		fps := bw * 1e6 / 8 / float64(frame)
		verdict := "NOT real-time"
		if fps >= mpeg.FrameRate {
			verdict = "real-time"
		}
		fmt.Fprintf(w, "%s\t%.0f Mbit/s\t%.1f fps -> %s\n", row.cfg.Label(), bw, fps, verdict)
	}
	w.Flush()

	if !r.measure {
		return true
	}
	// Measured miniature run: 3 workers over loopback, reduced frame
	// geometry so the demo completes quickly.
	fmt.Println("\nmeasured miniature farm (3 workers, 480x270 frames, loopback):")
	nsORB, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	defer nsORB.Shutdown()
	nsIOR, err := naming.Serve(nsORB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	var workers []*orb.ORB
	for i := 0; i < 3; i++ {
		wo, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return false
		}
		defer wo.Shutdown()
		workers = append(workers, wo)
		nc, err := naming.Connect(wo, nsIOR)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return false
		}
		if err := framework.StartWorker(wo, nc, fmt.Sprintf("enc-%d", i), 4); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return false
		}
	}
	master, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	defer master.Shutdown()
	nc, err := naming.Connect(master, nsIOR)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	farm, err := framework.Discover(master, nc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	src := mpeg.NewMPEG2Source(480, 272)
	frames, err := framework.SourceFrames(src, 50)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	results, st, err := farm.Transcode(frames)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return false
	}
	for _, res := range results {
		if res.Data != nil {
			res.Data.Release()
		}
	}
	fmt.Printf("  %d frames, %.1f fps, in %.1f MB out %.1f MB, real-time(25fps)=%v\n",
		st.Frames, st.FPS(), float64(st.InBytes)/1e6, float64(st.OutBytes)/1e6, st.RealTime())
	return true
}
