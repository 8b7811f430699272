package shmem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Ring is one direction of a segment: a header page with the cursors,
// a descriptor array, and the slot array. The struct itself holds no
// state beyond the mapped windows — all shared state lives in the
// mapping, so any process that maps the same bytes sees the same ring.
type Ring struct {
	cfg  Config
	hdr  []byte
	desc []byte
	data []byte
	seg  *Segment // owning segment (nil for test rings over plain memory)
}

// initRing formats mem (creator side) and returns the ring.
func initRing(mem []byte, cfg Config, seg *Segment) *Ring {
	r := sliceRing(mem, cfg, seg)
	putU32(r.hdr, offSlotSize, uint32(cfg.SlotSize))
	putU32(r.hdr, offSlotCount, uint32(cfg.SlotCount))
	putU32(r.hdr, offVersion, ringVersion)
	// Magic last: a peer that maps a half-initialized segment sees no
	// magic and refuses to attach.
	atomic.StoreUint32(u32p(r.hdr, offMagic), ringMagic)
	return r
}

// attachRing validates mem (attaching side) and returns the ring.
func attachRing(mem []byte, cfg Config, seg *Segment) (*Ring, error) {
	r := sliceRing(mem, cfg, seg)
	if atomic.LoadUint32(u32p(r.hdr, offMagic)) != ringMagic {
		return nil, fmt.Errorf("shmem: bad ring magic")
	}
	if v := getU32(r.hdr, offVersion); v != ringVersion {
		return nil, fmt.Errorf("shmem: ring version %d, want %d", v, ringVersion)
	}
	if getU32(r.hdr, offSlotSize) != uint32(cfg.SlotSize) ||
		getU32(r.hdr, offSlotCount) != uint32(cfg.SlotCount) {
		return nil, fmt.Errorf("shmem: ring geometry mismatch")
	}
	return r, nil
}

// sliceRing carves the header/descriptor/slot windows out of mem.
func sliceRing(mem []byte, cfg Config, seg *Segment) *Ring {
	da := cfg.descArea()
	return &Ring{
		cfg:  cfg,
		hdr:  mem[:hdrBytes:hdrBytes],
		desc: mem[hdrBytes : hdrBytes+da : hdrBytes+da],
		data: mem[hdrBytes+da : cfg.RingBytes() : cfg.RingBytes()],
		seg:  seg,
	}
}

// Mapped-header accessors. The header page is page-aligned, so the
// fixed offsets are always naturally aligned for 64-bit atomics.
func u64p(b []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&b[off])) }
func u32p(b []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&b[off])) }

func putU32(b []byte, off int, v uint32) { *u32p(b, off) = v }
func getU32(b []byte, off int) uint32    { return *u32p(b, off) }

func (r *Ring) head() *uint64       { return u64p(r.hdr, offHead) }
func (r *Ring) tail() *uint64       { return u64p(r.hdr, offTail) }
func (r *Ring) prodClosed() *uint32 { return u32p(r.hdr, offProdClosed) }
func (r *Ring) consClosed() *uint32 { return u32p(r.hdr, offConsClosed) }

// descAt returns pointers to the two descriptor words of slot idx.
func (r *Ring) descAt(idx int) (*uint64, *uint64) {
	off := idx * descBytes
	return u64p(r.desc, off), u64p(r.desc, off+8)
}

// runSlots returns the slot run of a size-byte record; an empty record
// still takes one slot for its descriptor.
func (c Config) runSlots(size int) int {
	return max(1, (size+c.SlotSize-1)/c.SlotSize)
}

// packDesc packs a record kind and byte length into descriptor word 0.
func packDesc(kind int, size int) uint64 {
	return uint64(kind)<<56 | uint64(uint32(size))
}

// sleepSpin is the spin count from which backoff sleeps.
const sleepSpin = 1024

// gone reports whether a waiter at spin should give up on its peer:
// dead is raised, or, once the wait has slowed to sleeps, alive (when
// set) says the peer is gone. alive is the check for a waiter whose
// transport socket nobody reads, so nothing would raise dead.
func gone(dead *atomic.Bool, alive func() bool, spin int) bool {
	return dead != nil && dead.Load() || spin >= sleepSpin && alive != nil && !alive()
}

// backoff parks a cursor-polling loop: spin briefly, then yield, then
// sleep with exponential backoff capped at 1ms, so an idle ring costs
// no CPU while a hot one reacts in nanoseconds.
func backoff(spin int) {
	switch {
	case spin < 256:
		// Busy spin: the peer is typically mid-memcpy.
	case spin < sleepSpin:
		// Yield to the goroutines of this process (an in-process peer
		// needs this P to finish its copy), then to the threads of
		// every process: a peer in another process is mid-copy on a
		// CPU this loop would otherwise keep busy.
		runtime.Gosched()
		osYield()
	default:
		d := time.Duration(1<<min((spin-sleepSpin)>>7, 10)) * time.Microsecond
		time.Sleep(d)
	}
}

// ---------------------------------------------------------------------------
// Producer

// Producer is the writing side of one ring direction. A Producer is
// safe for concurrent use; writes are serialized by an internal
// (process-local) mutex.
type Producer struct {
	r *Ring
	// Dead, if set, is polled while waiting for credit: the transport
	// raises it when its stream's reader sees the peer vanish. Alive,
	// if set, is asked once per sleeping step of a long wait.
	Dead  *atomic.Bool
	Alive func() bool
	// StallTimeout bounds how long a Write waits for credit before
	// failing with ErrRingStalled (the ORB's exhaustion-fallback
	// trigger). Zero means one second.
	StallTimeout time.Duration

	mu         sync.Mutex
	head       uint64 // local mirror of the shared head
	cachedTail uint64
	closed     bool
	// corruptNext makes the next record's sequence tag wrong — the
	// slot-corrupt fault hook (transport.FaultSlotCorrupt).
	corruptNext atomic.Bool
}

// Producer returns the writing handle of the ring. Call at most once
// per process per direction (SPSC discipline).
func (r *Ring) Producer() *Producer {
	p := &Producer{r: r}
	p.head = atomic.LoadUint64(r.head())
	p.cachedTail = atomic.LoadUint64(r.tail())
	return p
}

// CorruptNext arms the slot-corrupt fault: the next record is
// published with a wrong sequence tag, which the consumer detects as
// ErrCorrupt. Test/fault-injection hook only.
func (p *Producer) CorruptNext() { p.corruptNext.Store(true) }

// Write deposits b as one record, copying it into the receiver-mapped
// slot run and publishing the descriptor. It blocks while the ring
// lacks credit, up to StallTimeout.
func (p *Producer) Write(b []byte) (int, error) {
	n, err := p.WriteVec([][]byte{b})
	return int(n), err
}

// WriteVec deposits each segment as its own record — the multi-slot
// lease behind gathered deposits. Unlike a loop of Write calls, the
// slot runs (including pads) for a whole batch are credited in ONE
// reservation and the descriptors published with ONE release-store of
// the shared head, so the consumer observes the train atomically and a
// partially credited train can never wedge between records. Batches
// whose combined slot need exceeds the ring capacity are split at
// record boundaries (each flush is still one reservation).
func (p *Producer) WriteVec(segs [][]byte) (int64, error) {
	r := p.r
	slotSize := r.cfg.SlotSize
	for _, b := range segs {
		if len(b) > r.cfg.MaxPayload() {
			return 0, ErrTooLarge
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	// A record published after the consumer closed would be silently
	// lost; fail even when credit is available so the writer learns the
	// ring is dead on the write that would have vanished, not on the
	// one that fills the ring.
	if atomic.LoadUint32(r.consClosed()) != 0 || (p.Dead != nil && p.Dead.Load()) {
		return 0, ErrPeerDead
	}

	var total int64
	cap64 := uint64(r.cfg.SlotCount)
	for batch := 0; batch < len(segs); {
		p.cachedTail = atomic.LoadUint64(r.tail())
		drained := p.cachedTail == p.head
		// Lay the batch out from the current head until it would
		// exceed ring capacity.
		head, end := p.head, batch
		for ; end < len(segs); end++ {
			n := r.cfg.runSlots(len(segs[end]))
			next := head + uint64(r.place(head, n, drained && end == batch)+n)
			if end > batch && next-p.head > cap64 {
				break
			}
			head = next
		}
		if err := p.waitCredit(head - p.head); err != nil {
			return total, err
		}
		head = p.head
		for i, b := range segs[batch:end] {
			n := r.cfg.runSlots(len(b))
			if pad := r.place(head, n, drained && i == 0); pad > 0 {
				w0, w1 := r.descAt(int(head % cap64))
				*w0 = packDesc(kindPad, pad*slotSize)
				*w1 = head
				head += uint64(pad)
			}
			start := int(head % cap64)
			copy(r.data[start*slotSize:], b)
			w0, w1 := r.descAt(start)
			*w0 = packDesc(kindData, len(b))
			tag := head
			if p.corruptNext.CompareAndSwap(true, false) {
				tag = ^head // wrong on purpose: the consumer reports ErrCorrupt
			}
			*w1 = tag
			head += uint64(n)
			total += int64(len(b))
		}
		// Release-store: every descriptor and payload byte of the batch
		// happens-before a consumer's acquire-load of the new head.
		atomic.StoreUint64(r.head(), head)
		p.head = head
		batch = end
	}
	return total, nil
}

// place returns how many pad slots precede a run of n slots written at
// head. A run never crosses the end of the slot array: one that would
// is preceded by a pad to the end. On a drained ring (every published
// record retired) a run that is not at slot 0 also restarts there
// whenever the pad plus the run fit the capacity, so a steady stream
// keeps rewriting the same cache-resident slots instead of walking the
// whole array.
func (r *Ring) place(head uint64, n int, drained bool) int {
	start := int(head % uint64(r.cfg.SlotCount))
	if start > 0 && (start+n > r.cfg.SlotCount || drained && n <= start) {
		return r.cfg.SlotCount - start
	}
	return 0
}

// waitCredit blocks until need slots of credit are available. The
// caller holds p.mu.
func (p *Producer) waitCredit(need uint64) error {
	r := p.r
	cap64 := uint64(r.cfg.SlotCount)
	if p.head+need-p.cachedTail <= cap64 {
		return nil
	}
	timeout := p.StallTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	deadline := time.Now().Add(timeout)
	for spin := 0; ; spin++ {
		p.cachedTail = atomic.LoadUint64(r.tail())
		if p.head+need-p.cachedTail <= cap64 {
			return nil
		}
		if atomic.LoadUint32(r.consClosed()) != 0 {
			return ErrPeerDead
		}
		if gone(p.Dead, p.Alive, spin) {
			return ErrPeerDead
		}
		if spin&255 == 255 && time.Now().After(deadline) {
			return ErrRingStalled
		}
		backoff(spin)
	}
}

// Close marks the producer finished: the consumer drains what was
// published and then observes EOF.
func (p *Producer) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		atomic.StoreUint32(p.r.prodClosed(), 1)
	}
	p.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Consumer

// View is one claimed record: a window straight into the mapped slot
// run. The bytes stay valid until Release; Release order may differ
// from claim order (out-of-order releases are parked until the runs
// before them retire, because ring credit returns strictly in order).
type View struct {
	c     *Consumer
	b     []byte
	seq   uint64 // claim-time head value (ring order)
	slots int
	done  bool
}

// Bytes returns the record contents, valid until Release.
func (v *View) Bytes() []byte { return v.b }

// Release retires the view, returning its slot run (and any
// now-unblocked runs behind it) to the producer's credit.
func (v *View) Release() { v.c.release(v) }

// Consumer is the reading side of one ring direction.
type Consumer struct {
	r *Ring
	// Dead and Alive, if set, are consulted while waiting for records,
	// as the Producer's are while it waits for credit.
	Dead  *atomic.Bool
	Alive func() bool

	mu      sync.Mutex
	tail    uint64  // next unclaimed slot (reader cursor)
	retired uint64  // shared-tail mirror (credit actually returned)
	pending []*View // outstanding views in ring order
	free    []*View
	closed  atomic.Bool
}

// Consumer returns the reading handle of the ring. Call at most once
// per process per direction (SPSC discipline).
func (r *Ring) Consumer() *Consumer {
	c := &Consumer{r: r}
	c.tail = atomic.LoadUint64(r.tail())
	c.retired = c.tail
	return c
}

// Next blocks for the next record and returns a view of it. It returns
// ErrClosed after Close, ErrPeerDead once the peer vanished and every
// published record has been drained, and ErrClosed-wrapped EOF
// semantics via ErrPeerDead are left to the caller; an orderly
// producer Close yields (nil, ErrClosed-distinct) — callers treat
// ErrProducerDone as end of stream.
func (c *Consumer) Next() (*View, error) {
	r := c.r
	for spin := 0; ; spin++ {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		head := atomic.LoadUint64(r.head()) // acquire: pairs with the publish store
		c.mu.Lock()
		tail := c.tail
		c.mu.Unlock()
		if head != tail {
			v, err := c.claim(tail, head)
			if err != nil {
				return nil, err
			}
			if v != nil {
				return v, nil
			}
			spin = 0 // consumed a pad; look again immediately
			continue
		}
		if atomic.LoadUint32(r.prodClosed()) != 0 {
			return nil, ErrProducerDone
		}
		if gone(c.Dead, c.Alive, spin) {
			return nil, ErrPeerDead
		}
		backoff(spin)
	}
}

// ErrProducerDone marks an orderly end of stream: the producer closed
// and every record was drained.
var ErrProducerDone = fmt.Errorf("shmem: producer closed")

// claim decodes the record at tail. It returns (nil, nil) when the
// record was a pad (already retired); the caller loops.
func (c *Consumer) claim(tail, head uint64) (*View, error) {
	r := c.r
	idx := int(tail % uint64(r.cfg.SlotCount))
	w0, w1 := r.descAt(idx)
	d0, tag := *w0, *w1
	kind := int(d0 >> 56)
	size := int(uint32(d0))
	if tag != tail {
		return nil, ErrCorrupt
	}
	slotSize := r.cfg.SlotSize
	slots := r.cfg.runSlots(size)
	// A run must lie within what was published and within the slot
	// array: a hostile or torn descriptor fails here, never as an
	// out-of-range slice.
	if uint64(slots) > head-tail || idx+slots > r.cfg.SlotCount {
		return nil, ErrCorrupt
	}
	switch kind {
	case kindPad:
		if size == 0 || size%slotSize != 0 {
			return nil, ErrCorrupt
		}
		v := c.getView()
		v.seq, v.slots, v.done = tail, slots, true
		c.enqueue(v)
		c.mu.Lock()
		c.tail = tail + uint64(slots)
		c.sweepLocked()
		c.mu.Unlock()
		return nil, nil
	case kindData:
		if size > r.cfg.MaxPayload() {
			return nil, ErrCorrupt
		}
		v := c.getView()
		v.b = r.data[idx*slotSize : idx*slotSize+size : idx*slotSize+slots*slotSize]
		v.seq, v.slots, v.done = tail, slots, false
		if r.seg != nil {
			r.seg.retain()
		}
		c.enqueue(v)
		c.mu.Lock()
		c.tail = tail + uint64(slots)
		c.mu.Unlock()
		return v, nil
	default:
		return nil, ErrCorrupt
	}
}

// enqueue appends a view to the in-order pending list.
func (c *Consumer) enqueue(v *View) {
	c.mu.Lock()
	c.pending = append(c.pending, v)
	c.mu.Unlock()
}

// release marks v done and retires the contiguous released prefix.
func (c *Consumer) release(v *View) {
	seg := c.r.seg
	c.mu.Lock()
	if v.done {
		c.mu.Unlock()
		panic("shmem: double release of ring view")
	}
	v.done = true
	c.sweepLocked()
	c.mu.Unlock()
	if seg != nil {
		seg.release()
	}
}

// sweepLocked advances the shared tail across the released prefix of
// the pending list, recycling the view structs. Caller holds c.mu.
func (c *Consumer) sweepLocked() {
	i := 0
	for ; i < len(c.pending) && c.pending[i].done; i++ {
		v := c.pending[i]
		c.retired = v.seq + uint64(v.slots)
		v.b = nil
		if len(c.free) < 64 {
			c.free = append(c.free, v)
		}
	}
	if i == 0 {
		return
	}
	rest := copy(c.pending, c.pending[i:])
	for j := rest; j < len(c.pending); j++ {
		c.pending[j] = nil
	}
	c.pending = c.pending[:rest]
	// Release-store so the producer's acquire-load of tail
	// happens-after our last read of the retired bytes.
	atomic.StoreUint64(c.r.tail(), c.retired)
}

// getView recycles or allocates a view struct. Caller must not hold c.mu.
func (c *Consumer) getView() *View {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		v := c.free[n-1]
		c.free = c.free[:n-1]
		*v = View{c: c}
		return v
	}
	return &View{c: c}
}

// Outstanding reports how many claimed views have not been released.
func (c *Consumer) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.pending {
		if !v.done {
			n++
		}
	}
	return n
}

// Close marks the consumer gone: the peer's producer fails fast with
// ErrPeerDead, and a reader parked in Next unblocks with ErrClosed.
func (c *Consumer) Close() {
	if !c.closed.Swap(true) {
		atomic.StoreUint32(c.r.consClosed(), 1)
	}
}
