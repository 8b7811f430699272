// Package framework implements the service-based framework for
// transparent parallelization of §5.4 (reference [9] of the paper): a
// master distributes video frames over CORBA requests to a farm of
// encoder objects running on cluster nodes, and collects the encoded
// results. With the zero-copy ORB the frame buffers travel by direct
// deposit, which is what makes real-time HDTV rates reachable.
package framework

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/mpeg"
	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/trace"
	"zcorba/internal/zcbuf"
)

// WorkerPrefix is the naming-service prefix under which encoder
// workers register.
const WorkerPrefix = "encoders/"

// Frame is one unit of work: a raw (decoded) frame plus metadata.
type Frame struct {
	Info media.Media_FrameInfo
	Data *zcbuf.Buffer
}

// Result is one transcoded frame.
type Result struct {
	Info media.Media_FrameInfo
	// Data holds the encoded frame; the caller owns the reference.
	Data *zcbuf.Buffer
	// Worker indexes the farm member that produced the result.
	Worker int
	Err    error
}

// Stats summarizes a farm run.
type Stats struct {
	Frames   int
	InBytes  int64
	OutBytes int64
	Elapsed  time.Duration
}

// FPS returns achieved frames per second.
func (s Stats) FPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Frames) / s.Elapsed.Seconds()
}

// RealTime reports whether the run sustained the paper's real-time
// target (25 fps).
func (s Stats) RealTime() bool { return s.FPS() >= mpeg.FrameRate }

// EncoderServant adapts the synthetic MPEG-4 encoder to the generated
// Media::Encoder handler interface.
type EncoderServant struct {
	Enc   mpeg.Encoder
	depth atomic.Int32
}

var _ media.Media_EncoderHandler = (*EncoderServant)(nil)

// Encode implements Media_EncoderHandler.
func (s *EncoderServant) Encode(info media.Media_FrameInfo, frame *zcbuf.Buffer) (*zcbuf.Buffer, error) {
	s.depth.Add(1)
	defer s.depth.Add(-1)
	w, h := int(info.Width), int(info.Height)
	if mpeg.FrameBytes(w, h) != frame.Len() {
		return nil, &media.Media_TransferError{
			Reason: fmt.Sprintf("frame is %d bytes, %dx%d needs %d",
				frame.Len(), w, h, mpeg.FrameBytes(w, h)),
			Code: 1,
		}
	}
	coded, err := s.Enc.Encode(frame.Bytes(), w, h)
	if err != nil {
		return nil, &media.Media_TransferError{Reason: err.Error(), Code: 2}
	}
	return zcbuf.Wrap(coded), nil
}

// Encode_zc implements Media_EncoderHandler: the gathered form of
// Encode. The metadata arrives as its own deposited segment (one
// deposit train carries meta and frame), so both sides of the
// frame+metadata send share a single vectored write.
func (s *EncoderServant) Encode_zc(meta, frame *zcbuf.Buffer) (*zcbuf.Buffer, error) {
	info, err := media.UnmarshalFrameInfo(meta)
	if err != nil {
		return nil, &media.Media_TransferError{Reason: err.Error(), Code: 3}
	}
	return s.Encode(info, frame)
}

// Busy implements Media_EncoderHandler: current queue depth, used for
// load-aware scheduling.
func (s *EncoderServant) Busy() (uint32, error) {
	return uint32(s.depth.Load()), nil
}

// StartWorker activates an encoder servant on o under the given name
// and registers it with the naming service.
func StartWorker(o *orb.ORB, nc *naming.Client, name string, quality int) error {
	servant := &EncoderServant{Enc: mpeg.Encoder{Quality: quality}}
	ref, err := o.Activate(name, media.Media_EncoderSkeleton{Impl: servant})
	if err != nil {
		return fmt.Errorf("framework: activate %s: %w", name, err)
	}
	if err := nc.Rebind(WorkerPrefix+name, ref); err != nil {
		return fmt.Errorf("framework: bind %s: %w", name, err)
	}
	return nil
}

// Farm is a set of encoder workers fed round-robin with bounded
// in-flight requests per worker.
type Farm struct {
	stubs []media.Media_EncoderStub
	// InFlight bounds concurrent requests per worker (default 2: one
	// encoding, one in transfer — the pipeline overlap the deposit
	// architecture enables).
	InFlight int
	// Tracer, if set, records one frame span per work item (kind
	// "frame": submit to completed result, spanning queueing, transfer
	// and remote encode) plus the frame-latency histogram.
	Tracer *trace.Tracer
	// Gather switches frame delivery to encode_zc: the marshaled
	// FrameInfo and the frame payload leave as one gathered
	// deposit train (a single vectored write on the data plane) instead
	// of a marshaled header plus a separate single-segment deposit.
	Gather bool
}

// recordFrame emits the frame span for one completed work item.
func (f *Farm) recordFrame(worker int, start, bytes int64, failed bool) {
	if f.Tracer == nil {
		return
	}
	dur := trace.Now() - start
	f.Tracer.Record(trace.Span{
		Trace: f.Tracer.NewID(), Kind: trace.KindFrame, Op: "encode",
		Attempt: uint16(worker + 1), Err: failed,
		Start: start, Dur: dur, Bytes: bytes,
	})
	f.Tracer.FrameLatencyNS.Record(dur)
}

// NewFarm builds a farm from explicit worker stubs.
func NewFarm(stubs ...media.Media_EncoderStub) *Farm {
	return &Farm{stubs: stubs, InFlight: 2}
}

// Discover resolves all workers registered under WorkerPrefix.
func Discover(o *orb.ORB, nc *naming.Client) (*Farm, error) {
	names, err := nc.List(WorkerPrefix)
	if err != nil {
		return nil, fmt.Errorf("framework: list workers: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("framework: no workers registered under %q", WorkerPrefix)
	}
	stubs := make([]media.Media_EncoderStub, 0, len(names))
	for _, n := range names {
		ref, err := nc.Resolve(n)
		if err != nil {
			return nil, fmt.Errorf("framework: resolve %s: %w", n, err)
		}
		stubs = append(stubs, media.Media_EncoderStub{Ref: ref})
	}
	return NewFarm(stubs...), nil
}

// Size returns the number of workers.
func (f *Farm) Size() int { return len(f.stubs) }

// reassignable reports whether a frame failure is a transport-level
// fault worth redistributing to another worker, as opposed to an
// application error (bad geometry, encoder failure) that would fail
// identically anywhere. Encoding is a pure function of the frame, so a
// possibly-duplicated execution on the dead worker is harmless.
func reassignable(err error) bool {
	var sys *orb.SystemException
	if !errors.As(err, &sys) {
		return false
	}
	switch sys.Name {
	case "COMM_FAILURE", "TRANSIENT":
		return true
	}
	return false
}

// redeliver retries frames whose first delivery died with a
// transport-level fault on the surviving workers, round-robin from the
// failed one. The frame buffers were retained by the first pass for
// exactly this; they are released here win or lose.
func (f *Farm) redeliver(frames []Frame, results []Result, outBytes *atomic.Int64) {
	for idx := range results {
		r := &results[idx]
		if r.Err == nil || !reassignable(r.Err) {
			continue
		}
		data := frames[idx].Data
		for k := 1; k < len(f.stubs) && r.Err != nil; k++ {
			wi := (r.Worker + k) % len(f.stubs)
			out, err := f.stubs[wi].Encode(frames[idx].Info, data)
			if err != nil {
				r.Worker, r.Err = wi, err
				continue
			}
			*r = Result{Info: frames[idx].Info, Data: out, Worker: wi}
			outBytes.Add(int64(out.Len()))
		}
		data.Release()
	}
}

// Transcode pushes the frames through the farm and returns one result
// per frame, in input order, plus aggregate statistics. Frame buffers
// are released by the farm after their transfer completes.
//
// Each worker is driven by one goroutine holding an orb.Pipeline with
// an InFlight-deep window: instead of InFlight goroutines blocking on
// synchronous invocations, the requests themselves overlap on the
// wire, keeping both the deposit channel and the remote encoder busy.
//
// A frame whose worker connection dies (COMM_FAILURE or TRANSIENT,
// after any ORB-level retries) is redistributed to the surviving
// workers before Transcode gives up on it, so a killed worker
// connection costs latency, not results.
func (f *Farm) Transcode(frames []Frame) ([]Result, Stats, error) {
	if len(f.stubs) == 0 {
		return nil, Stats{}, fmt.Errorf("framework: empty farm")
	}
	inflight := f.InFlight
	if inflight < 1 {
		inflight = 1
	}
	results := make([]Result, len(frames))
	queue := make(chan encJob)
	var wg sync.WaitGroup
	var inBytes, outBytes atomic.Int64

	start := time.Now()
	for wi, stub := range f.stubs {
		wg.Add(1)
		go func(wi int, stub media.Media_EncoderStub) {
			defer wg.Done()
			if f.Gather {
				f.gatherWorker(wi, stub, inflight, queue, results, &inBytes, &outBytes)
				return
			}
			p := stub.Ref.Pipeline(media.EncodeOp, inflight)
			for j := range queue {
				idx, info, data := j.idx, j.f.Info, j.f.Data
				inBytes.Add(int64(data.Len()))
				submitted := trace.Now()
				err := p.Submit(media.EncodeArgs(info, data),
					func(result any, _ []any, err error) {
						res := Result{Info: info, Worker: wi, Err: media.EncodeError(err)}
						if err == nil {
							res.Data = result.(*zcbuf.Buffer)
							outBytes.Add(int64(res.Data.Len()))
						}
						f.recordFrame(wi, submitted, int64(data.Len()), err != nil)
						// Keep the buffer alive for redeliver when the
						// failure is worth another worker.
						if !reassignable(res.Err) {
							data.Release()
						}
						results[idx] = res
					})
				if err != nil {
					if !reassignable(err) {
						data.Release()
					}
					results[idx] = Result{Info: info, Worker: wi, Err: err}
				}
			}
			_ = p.Flush()
		}(wi, stub)
	}
	for i, fr := range frames {
		queue <- encJob{idx: i, f: fr}
	}
	close(queue)
	wg.Wait()
	f.redeliver(frames, results, &outBytes)

	st := Stats{
		Frames:   len(frames),
		InBytes:  inBytes.Load(),
		OutBytes: outBytes.Load(),
		Elapsed:  time.Since(start),
	}
	for _, r := range results {
		if r.Err != nil {
			return results, st, fmt.Errorf("framework: frame %d on worker %d: %w",
				r.Info.Seq, r.Worker, r.Err)
		}
	}
	return results, st, nil
}

// encJob is one indexed unit of Transcode work.
type encJob struct {
	idx int
	f   Frame
}

// gatherWorker drains queue through encode_zc: each frame's marshaled
// metadata and its payload leave as one deposit train (a single
// vectored write), with up to inflight trains outstanding per worker.
// Replies are reaped oldest-first, which bounds the window the same
// way the pipelined path does. A call borrows both buffers until its
// reply is reaped.
func (f *Farm) gatherWorker(wi int, stub media.Media_EncoderStub, inflight int,
	queue <-chan encJob, results []Result, inBytes, outBytes *atomic.Int64) {
	type pending struct {
		idx       int
		info      media.Media_FrameInfo
		meta      *zcbuf.Buffer
		data      *zcbuf.Buffer
		call      *orb.Call
		submitted int64
	}
	window := make([]pending, 0, inflight)
	reap := func(p pending) {
		res, _, err := p.call.Wait()
		r := Result{Info: p.info, Worker: wi, Err: media.EncodeError(err)}
		if err == nil {
			r.Data = res.(*zcbuf.Buffer)
			outBytes.Add(int64(r.Data.Len()))
		}
		f.recordFrame(wi, p.submitted, int64(p.data.Len()), err != nil)
		p.meta.Release()
		// Keep the buffer alive for redeliver when the failure is worth
		// another worker.
		if !reassignable(r.Err) {
			p.data.Release()
		}
		results[p.idx] = r
	}
	fail := func(j encJob, err error) {
		if !reassignable(err) {
			j.f.Data.Release()
		}
		results[j.idx] = Result{Info: j.f.Info, Worker: wi, Err: err}
	}
	for j := range queue {
		meta, err := media.MarshalFrameInfo(j.f.Info)
		if err != nil {
			fail(j, err)
			continue
		}
		if len(window) == inflight {
			reap(window[0])
			window = window[1:]
		}
		inBytes.Add(int64(j.f.Data.Len()))
		submitted := trace.Now()
		call := stub.Ref.InvokeAsync(media.EncodeZCOp, []any{meta, j.f.Data})
		window = append(window, pending{idx: j.idx, info: j.f.Info,
			meta: meta, data: j.f.Data, call: call, submitted: submitted})
	}
	for _, p := range window {
		reap(p)
	}
}

// TranscodeStream is the streaming form of Transcode for live sources
// (the real-time pipeline of §5.4): frames are consumed from in as they
// arrive, fanned out to the farm with bounded in-flight work, and
// results are delivered on the returned channel in completion order
// (each result carries its sequence number for reordering). The result
// channel closes after the last frame; callers own the result buffers.
func (f *Farm) TranscodeStream(in <-chan Frame) (<-chan Result, error) {
	if len(f.stubs) == 0 {
		return nil, fmt.Errorf("framework: empty farm")
	}
	inflight := f.InFlight
	if inflight < 1 {
		inflight = 1
	}
	out := make(chan Result, len(f.stubs)*inflight)
	var wg sync.WaitGroup
	for wi, stub := range f.stubs {
		wg.Add(1)
		go func(wi int, stub media.Media_EncoderStub) {
			defer wg.Done()
			p := stub.Ref.Pipeline(media.EncodeOp, inflight)
			for fr := range in {
				info, data := fr.Info, fr.Data
				err := p.Submit(media.EncodeArgs(info, data),
					func(result any, _ []any, err error) {
						data.Release()
						res := Result{Info: info, Worker: wi, Err: media.EncodeError(err)}
						if err == nil {
							res.Data = result.(*zcbuf.Buffer)
						}
						out <- res
					})
				if err != nil {
					data.Release()
					out <- Result{Info: info, Worker: wi, Err: err}
				}
			}
			_ = p.Flush()
		}(wi, stub)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// SourceFrames decodes n frames from an MPEG-2 source into farm work
// items (the master-side decode step of the transcoder pipeline).
func SourceFrames(src *mpeg.MPEG2Source, n int) ([]Frame, error) {
	frames := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		seq, coded, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("framework: source frame %d: %w", i, err)
		}
		raw, err := src.DecodeFrame(coded)
		if err != nil {
			return nil, fmt.Errorf("framework: decode frame %d: %w", i, err)
		}
		frames = append(frames, Frame{
			Info: media.Media_FrameInfo{
				Seq: seq, Width: uint32(src.Width), Height: uint32(src.Height),
				Codec: media.Media_MPEG4, Pts: float64(seq) / mpeg.FrameRate,
			},
			Data: zcbuf.Wrap(raw),
		})
	}
	return frames, nil
}
