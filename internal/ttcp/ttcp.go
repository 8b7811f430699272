// Package ttcp reimplements the TTCP throughput benchmark of §5.1 for
// every configuration the paper measures: raw sockets over the
// standard (copying) stack, sockets over the zero-copy stack, CORBA
// over either stack with the standard ORB path, and CORBA with the
// zero-copy ORB (direct deposit). It produces the series plotted in
// Figures 5 and 6.
//
// As in the original tool, a transmitter pushes a configurable number
// of fixed-size blocks to a remote receiver and reports end-to-end
// throughput in Mbit/s; block sizes sweep 4 KiB..16 MiB in the paper's
// 4 KiB-aligned buffers.
package ttcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/orb"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// Mode names a benchmark configuration.
type Mode string

// Benchmark configurations, matching the paper's TTCP variants.
const (
	// ModeRawSocket is the C TTCP: sockets over the configured stack.
	ModeRawSocket Mode = "socket"
	// ModeCorba is the CORBA TTCP using the standard marshal path.
	ModeCorba Mode = "corba"
	// ModeZCCorba is the CORBA TTCP using the zero-copy ORB.
	ModeZCCorba Mode = "zc-corba"
	// ModeShmCorba is the CORBA TTCP with the shared-memory data plane:
	// zero-copy deposits straight into a ring mapped by both processes.
	ModeShmCorba Mode = "shm-corba"
	// ModeGatherCorba is the CORBA TTCP using gathered deposits: each
	// request carries N ZC buffers as one deposit train (an ordinary
	// call with N ZC parameters — a single vectored write per train).
	ModeGatherCorba Mode = "gather-corba"
)

// Result is one benchmark measurement.
type Result struct {
	Mode      Mode
	Stack     string // transport name, e.g. "tcp" or "copying(tcp)"
	BlockSize int
	Blocks    int
	// Window is the pipelined in-flight request bound (1 for the
	// synchronous one-request-per-round-trip senders).
	Window  int
	Bytes   int64
	Elapsed time.Duration
}

// Mbps returns the measured throughput in megabits per second.
func (r Result) Mbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Elapsed.Seconds() / 1e6
}

// ReqPerSec returns the measured request rate (blocks per second) —
// the per-request software overhead view of the same measurement.
func (r Result) ReqPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Blocks) / r.Elapsed.Seconds()
}

// String renders the result like the original ttcp summary line.
func (r Result) String() string {
	w := r.Window
	if w < 1 {
		w = 1
	}
	return fmt.Sprintf("ttcp-%s[%s]: %d bytes in %.3fs = %.1f Mbit/s, %.0f req/s (block %d, window %d)",
		r.Mode, r.Stack, r.Bytes, r.Elapsed.Seconds(), r.Mbps(), r.ReqPerSec(), r.BlockSize, w)
}

// ---------------------------------------------------------------------------
// Socket variant

// SocketSink is the receiving side of the socket benchmark. It accepts
// any number of transmitter connections; each sends a length header
// and a byte stream, and receives an 8-byte acknowledgement.
type SocketSink struct {
	lis  transport.Listener
	done chan struct{}
}

// NewSocketSink binds a sink on tr.
func NewSocketSink(tr transport.Transport, addr string) (*SocketSink, error) {
	lis, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("ttcp: sink listen: %w", err)
	}
	s := &SocketSink{lis: lis, done: make(chan struct{})}
	go s.serve()
	return s, nil
}

// Addr returns the sink's dialable address.
func (s *SocketSink) Addr() string { return s.lis.Addr() }

// Close stops the sink.
func (s *SocketSink) Close() error { return s.lis.Close() }

func (s *SocketSink) serve() {
	var pool zcbuf.Pool
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return
		}
		go func(c transport.Conn) {
			defer c.Close()
			var hdr [16]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			total := int64(binary.BigEndian.Uint64(hdr[:8]))
			block := int64(binary.BigEndian.Uint64(hdr[8:]))
			if block <= 0 || block > 64<<20 || total < 0 {
				return
			}
			// Deposit every block into a page-aligned buffer, as the
			// zero-copy receiver would; the copying stack shim adds
			// its kernel-copy cost underneath when configured.
			buf, err := pool.Get(int(block))
			if err != nil {
				return
			}
			defer buf.Release()
			left := total
			for left > 0 {
				n := block
				if left < n {
					n = left
				}
				if _, err := io.ReadFull(c, buf.Bytes()[:n]); err != nil {
					return
				}
				left -= n
			}
			var ack [8]byte
			binary.BigEndian.PutUint64(ack[:], uint64(total))
			_, _ = c.Write(ack[:])
		}(c)
	}
}

// SocketSend transmits blocks of blockSize bytes to a sink and returns
// the measurement. The payload buffer is page-aligned and reused, as
// in the original TTCP's aligned 4 KiB buffers.
func SocketSend(tr transport.Transport, addr string, blockSize, blocks int) (Result, error) {
	res := Result{Mode: ModeRawSocket, Stack: tr.Name(), BlockSize: blockSize, Blocks: blocks}
	c, err := tr.Dial(addr)
	if err != nil {
		return res, fmt.Errorf("ttcp: dial sink: %w", err)
	}
	defer c.Close()

	var pool zcbuf.Pool
	buf, err := pool.Get(blockSize)
	if err != nil {
		return res, err
	}
	defer buf.Release()
	payload := buf.Bytes()
	for i := range payload {
		payload[i] = byte(i)
	}
	total := int64(blockSize) * int64(blocks)
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(total))
	binary.BigEndian.PutUint64(hdr[8:], uint64(blockSize))

	start := time.Now()
	if _, err := c.Write(hdr[:]); err != nil {
		return res, fmt.Errorf("ttcp: header: %w", err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := c.WriteGather(payload); err != nil {
			return res, fmt.Errorf("ttcp: block %d: %w", i, err)
		}
	}
	var ack [8]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		return res, fmt.Errorf("ttcp: ack: %w", err)
	}
	res.Elapsed = time.Since(start)
	res.Bytes = total
	if got := int64(binary.BigEndian.Uint64(ack[:])); got != total {
		return res, fmt.Errorf("ttcp: sink acknowledged %d of %d bytes", got, total)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// CORBA variant

// CorbaSink serves the Media::Store interface as the benchmark
// receiver. The same servant handles both the standard and the
// zero-copy operation, exactly as the paper ran standard and ZC octet
// streams through one MICO server.
type CorbaSink struct {
	ORB *orb.ORB
	IOR string
	// GatherIOR names the gather sink (SinkConfig.GatherSegs); empty
	// when the gather tier is off.
	GatherIOR string
}

// sinkServant discards received blocks. Requests dispatch concurrently
// (and a retrying client may overlap connections), so the byte count is
// atomic.
type sinkServant struct{ received atomic.Uint64 }

func (s *sinkServant) GetReceived() (uint64, error) { return s.received.Load(), nil }
func (s *sinkServant) Put(data []byte) (uint32, error) {
	s.received.Add(uint64(len(data)))
	return uint32(len(data)), nil
}
func (s *sinkServant) Zput(data *zcbuf.Buffer) (uint32, error) {
	s.received.Add(uint64(data.Len()))
	return uint32(data.Len()), nil
}
func (s *sinkServant) Get(n uint32) ([]byte, error) { return make([]byte, n), nil }
func (s *sinkServant) Zget(n uint32) (*zcbuf.Buffer, error) {
	return zcbuf.Wrap(make([]byte, n)), nil
}
func (s *sinkServant) Describe(seq uint32) (media.Media_FrameInfo, error) {
	return media.Media_FrameInfo{Seq: seq}, nil
}
func (s *sinkServant) Reset() error { s.received.Store(0); return nil }

// NewCorbaSink starts an ORB on tr serving a Store sink. zeroCopy
// controls whether the ORB offers the direct-deposit channel; tracer
// (optional) records the sink's server-side spans.
func NewCorbaSink(tr transport.Transport, zeroCopy bool, tracer *trace.Tracer) (*CorbaSink, error) {
	return NewCorbaSinkData(tr, zeroCopy, tracer, "")
}

// NewCorbaSinkData is NewCorbaSink with an explicit data-plane listen
// address. Scheme URIs select the data transport ("shm://" puts the
// deposit path on a shared-memory ring); empty keeps the control
// transport's default.
func NewCorbaSinkData(tr transport.Transport, zeroCopy bool, tracer *trace.Tracer,
	dataAddr string) (*CorbaSink, error) {
	return NewCorbaSinkConfig(SinkConfig{
		Transport: tr, ZeroCopy: zeroCopy, Tracer: tracer, DataAddr: dataAddr,
	})
}

// SinkConfig configures a CORBA sink beyond the transport/ZC pair: the
// server-side connection engine and its admission-control knobs, which
// cmd/ttcp exposes as flags for connection-scale runs.
type SinkConfig struct {
	Transport transport.Transport
	ZeroCopy  bool
	Tracer    *trace.Tracer
	// DataAddr is the data-plane listen address (see NewCorbaSinkData).
	DataAddr string
	// Engine parks inbound connections in the epoll-driven event tier
	// (orb.Options.Engine); ignored off Linux.
	Engine bool
	// MaxInFlight caps concurrently dispatching requests; excess is
	// shed with TRANSIENT (orb.Options.MaxInFlight). 0 = unlimited.
	MaxInFlight int
	// MaxConns pauses the accept loop above this many live inbound
	// connections (orb.Options.MaxConns). 0 = unlimited.
	MaxConns int
	// GatherSegs additionally serves a gather sink — a zputv operation
	// taking this many ZC octet-stream segments per request — whose IOR
	// lands in CorbaSink.GatherIOR. 0 disables it.
	GatherSegs int
}

// NewCorbaSinkConfig starts a sink ORB from the full configuration.
func NewCorbaSinkConfig(cfg SinkConfig) (*CorbaSink, error) {
	o, err := orb.New(orb.Options{
		Transport: cfg.Transport, ZeroCopy: cfg.ZeroCopy, Tracer: cfg.Tracer,
		DataListenAddr: cfg.DataAddr,
		Engine:         cfg.Engine,
		MaxInFlight:    cfg.MaxInFlight,
		MaxConns:       cfg.MaxConns,
	})
	if err != nil {
		return nil, fmt.Errorf("ttcp: sink ORB: %w", err)
	}
	ref, err := o.Activate("ttcp-sink", media.Media_StoreSkeleton{Impl: &sinkServant{}})
	if err != nil {
		o.Shutdown()
		return nil, fmt.Errorf("ttcp: activate sink: %w", err)
	}
	s := &CorbaSink{ORB: o, IOR: ref.String()}
	if cfg.GatherSegs > 0 {
		gref, err := o.Activate("ttcp-gather-sink",
			&gatherSinkServant{iface: GatherStoreIface(cfg.GatherSegs)})
		if err != nil {
			o.Shutdown()
			return nil, fmt.Errorf("ttcp: activate gather sink: %w", err)
		}
		s.GatherIOR = gref.String()
	}
	return s, nil
}

// Close shuts the sink ORB down.
func (s *CorbaSink) Close() { s.ORB.Shutdown() }

// CorbaSend transmits blocks through the Store stub, one request per
// round trip. With zeroCopy the zput operation (sequence<ZC_Octet>,
// direct deposit) is used; otherwise put (standard marshaling).
func CorbaSend(client *orb.ORB, iorStr string, blockSize, blocks int, zeroCopy bool) (Result, error) {
	return CorbaSendWindow(client, iorStr, blockSize, blocks, 1, zeroCopy)
}

// CorbaSendWindow transmits blocks through the Store interface with up
// to window requests in flight, so small-block transfers are no longer
// bounded by one round trip per block. Replies are verified in order;
// window 1 degenerates to the synchronous CorbaSend.
func CorbaSendWindow(client *orb.ORB, iorStr string, blockSize, blocks, window int, zeroCopy bool) (Result, error) {
	mode := ModeCorba
	if zeroCopy {
		mode = ModeZCCorba
	}
	return CorbaSendWindowMode(client, iorStr, blockSize, blocks, window, zeroCopy, mode)
}

// CorbaSendWindowMode is CorbaSendWindow with an explicit result-mode
// label (runs over the shared-memory data plane report as
// ModeShmCorba; the wire protocol is identical).
func CorbaSendWindowMode(client *orb.ORB, iorStr string, blockSize, blocks, window int,
	zeroCopy bool, mode Mode) (Result, error) {
	if window < 1 {
		window = 1
	}
	res := Result{Mode: mode, Stack: "orb", BlockSize: blockSize, Blocks: blocks, Window: window}
	ref, err := client.StringToObject(iorStr)
	if err != nil {
		return res, err
	}
	opName := "put"
	if zeroCopy {
		opName = "zput"
	}
	op := media.Media_StoreIface.Ops[opName]

	var pool zcbuf.Pool
	buf, err := pool.Get(blockSize)
	if err != nil {
		return res, err
	}
	defer buf.Release()
	payload := buf.Bytes()
	for i := range payload {
		payload[i] = byte(i)
	}
	args := []any{any(payload)}
	if zeroCopy {
		// The pipelined sends reuse one buffer: each request's payload
		// is fully written (to the stream or the ring) before Submit
		// returns.
		args[0] = buf
	}

	var ackErr error
	check := func(result any, _ []any, err error) {
		if ackErr != nil {
			return
		}
		if err != nil {
			ackErr = err
			return
		}
		n, _ := result.(uint32)
		if int(n) != blockSize {
			ackErr = fmt.Errorf("acknowledged %d of %d bytes", n, blockSize)
		}
	}

	p := ref.Pipeline(op, window)
	start := time.Now()
	for i := 0; i < blocks; i++ {
		if err := p.Submit(args, check); err != nil {
			return res, fmt.Errorf("ttcp: block %d: %w", i, err)
		}
		if ackErr != nil {
			return res, fmt.Errorf("ttcp: block %d: %w", i, ackErr)
		}
	}
	if err := p.Flush(); err != nil {
		return res, fmt.Errorf("ttcp: flush: %w", err)
	}
	if ackErr != nil {
		return res, fmt.Errorf("ttcp: %w", ackErr)
	}
	res.Elapsed = time.Since(start)
	res.Bytes = int64(blockSize) * int64(blocks)
	return res, nil
}

// ---------------------------------------------------------------------------
// Gathered-deposit variant

// GatherStoreIface returns the runtime contract of the gather sink: a
// single zputv operation carrying segs ZC octet-stream parameters, so
// one request scatters segs blocks on the receive side.
func GatherStoreIface(segs int) *orb.Interface {
	params := make([]orb.Param, segs)
	for i := range params {
		params[i] = orb.Param{Name: fmt.Sprintf("d%d", i),
			Type: typecode.TCZCOctetSeq, Dir: orb.In}
	}
	return orb.NewInterface(
		fmt.Sprintf("IDL:zcorba/Media/GatherStore%d:1.0", segs), "GatherStore",
		&orb.Operation{Name: "zputv", Idempotent: true, Params: params,
			Result: typecode.TCULong})
}

// gatherSinkServant acknowledges zputv trains with the total byte
// count, like sinkServant does for single blocks.
type gatherSinkServant struct {
	iface    *orb.Interface
	received atomic.Uint64
}

func (g *gatherSinkServant) Interface() *orb.Interface { return g.iface }

func (g *gatherSinkServant) Invoke(op string, args []any) (any, []any, error) {
	if op != "zputv" {
		return nil, nil, &orb.SystemException{Name: "BAD_OPERATION"}
	}
	var n uint32
	for _, a := range args {
		b, ok := a.(*zcbuf.Buffer)
		if !ok {
			return nil, nil, &orb.SystemException{Name: "BAD_PARAM"}
		}
		n += uint32(b.Len())
	}
	g.received.Add(uint64(n))
	return n, nil, nil
}

// CorbaSendGather transmits trains of segs buffers through the gather
// sink: each train is one InvokeAsync of zputv with segs ZC arguments
// (a single vectored write carries all segs blocks), with up to window
// trains in flight. A window slot's buffers and argument list are
// reused only after its previous train's reply is collected, so the
// set cycles without copies. Blocks in the result counts blocks
// (trains × segs).
func CorbaSendGather(client *orb.ORB, iorStr string, blockSize, trains, segs, window int) (Result, error) {
	if segs < 1 {
		segs = 1
	}
	if window < 1 {
		window = 1
	}
	if trains < 1 {
		trains = 1
	}
	if window > trains {
		window = trains
	}
	res := Result{Mode: ModeGatherCorba, Stack: "orb",
		BlockSize: blockSize, Blocks: trains * segs, Window: window}
	ref, err := client.StringToObject(iorStr)
	if err != nil {
		return res, err
	}
	op := GatherStoreIface(segs).Ops["zputv"]
	want := uint32(blockSize) * uint32(segs)

	// One argument list of segs pool buffers per window slot.
	type slot struct {
		args []any
		call *orb.Call
	}
	var pool zcbuf.Pool
	slots := make([]slot, window)
	defer func() {
		for _, s := range slots {
			for _, a := range s.args {
				a.(*zcbuf.Buffer).Release()
			}
		}
	}()
	for k := range slots {
		for i := 0; i < segs; i++ {
			b, err := pool.Get(blockSize)
			if err != nil {
				return res, err
			}
			p := b.Bytes()
			for j := range p {
				p[j] = byte(j)
			}
			slots[k].args = append(slots[k].args, b)
		}
	}

	reap := func(s *slot) error {
		r, _, err := s.call.Wait()
		s.call = nil
		if err != nil {
			return err
		}
		if n, _ := r.(uint32); n != want {
			return fmt.Errorf("acknowledged %d of %d bytes", n, want)
		}
		return nil
	}

	start := time.Now()
	for t := 0; t < trains; t++ {
		s := &slots[t%window]
		if s.call != nil {
			if err := reap(s); err != nil {
				return res, fmt.Errorf("ttcp: train %d: %w", t-window, err)
			}
		}
		s.call = ref.InvokeAsync(op, s.args)
	}
	for k := 0; k < window; k++ {
		s := &slots[(trains+k)%window]
		if s.call == nil {
			continue
		}
		if err := reap(s); err != nil {
			return res, fmt.Errorf("ttcp: drain: %w", err)
		}
	}
	res.Elapsed = time.Since(start)
	res.Bytes = int64(blockSize) * int64(segs) * int64(trains)
	return res, nil
}

// BlocksFor picks a block count that keeps total transfer near
// targetBytes, with at least minBlocks rounds, so small and large
// blocks get comparable measurement windows.
func BlocksFor(blockSize int, targetBytes int64, minBlocks int) int {
	b := int(targetBytes / int64(blockSize))
	if b < minBlocks {
		return minBlocks
	}
	return b
}

// PaperSweep returns the paper's block-size sweep: 4 KiB to 16 MiB in
// powers of two (the buffers grow in 4 KiB page increments; powers of
// two are the points Figures 5/6 plot).
func PaperSweep() []int {
	var sizes []int
	for s := 4 << 10; s <= 16<<20; s <<= 1 {
		sizes = append(sizes, s)
	}
	return sizes
}
