package shmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// tinyCfg is the smallest legal ring: 8 slots of 4 KiB, 16 KiB max
// payload. Small enough that wrap and credit exhaustion are easy to
// provoke.
var tinyCfg = Config{SlotSize: 4096, SlotCount: 8}

func heapPair(t *testing.T, cfg Config) (*Producer, *Consumer, *Segment) {
	t.Helper()
	seg, err := NewHeapSegment(cfg)
	if err != nil {
		t.Fatalf("NewHeapSegment: %v", err)
	}
	t.Cleanup(seg.Close)
	return seg.Ring(0).Producer(), seg.Ring(0).Consumer(), seg
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}.WithDefaults()).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, bad := range []Config{
		{SlotSize: 100, SlotCount: 8},
		{SlotSize: 8192 + 1, SlotCount: 8},
		{SlotSize: 4096, SlotCount: 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v validated", bad)
		}
	}
	c := Config{SlotSize: 4096, SlotCount: 8}
	if got, want := c.MaxPayload(), 4096*4; got != want {
		t.Fatalf("MaxPayload = %d, want %d", got, want)
	}
	if c.SegmentBytes() != 2*c.RingBytes() {
		t.Fatal("segment is not two rings")
	}
}

func TestRingRoundTrip(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	for i, n := range []int{1, 100, 4096, 4097, 8192, 0, 16384} {
		msg := fill(n, byte(i))
		if _, err := p.Write(msg); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		v, err := c.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !bytes.Equal(v.Bytes(), msg) {
			t.Fatalf("record %d: payload mismatch (%d bytes)", i, n)
		}
		v.Release()
	}
}

// TestRingWrapPad drives the cursor past the ring end many times with
// record sizes that do not divide the slot count, so pad records are
// exercised constantly. One view is always held across the next write,
// so the ring never drains and the producer never rewinds early: every
// return to slot 0 goes through the end-of-ring pad.
func TestRingWrapPad(t *testing.T) {
	p, c, seg := heapPair(t, tinyCfg)
	var held *View
	wraps := 0
	for i := 0; i < 200; i++ {
		msg := fill(3*4096-7, byte(i))
		if _, err := p.Write(msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		v, err := c.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if !bytes.Equal(v.Bytes(), msg) {
			t.Fatalf("record %d corrupted across wrap", i)
		}
		if i > 0 && slotOf(seg.Ring(0), v) == 0 {
			wraps++
		}
		if held != nil {
			held.Release()
		}
		held = v
	}
	held.Release()
	if wraps == 0 {
		t.Fatal("no record wrapped through an end-of-ring pad")
	}
}

// slotOf returns the slot index a claimed view starts at.
func slotOf(r *Ring, v *View) int {
	off := uintptr(unsafe.Pointer(unsafe.SliceData(v.Bytes()))) - uintptr(unsafe.Pointer(&r.data[0]))
	return int(off) / r.cfg.SlotSize
}

// TestRingRewindsWhenDrained pins the placement rule: on a drained ring
// the next record (or train) restarts at slot 0 when the pad plus the
// record fit the capacity; an outstanding view, or a record longer than
// the cursor offset, leaves it at the cursor.
func TestRingRewindsWhenDrained(t *testing.T) {
	p, c, seg := heapPair(t, tinyCfg)
	r := seg.Ring(0)
	// claim writes msgs as one train and returns the views with the
	// slot each starts at.
	claim := func(msgs ...[]byte) ([]*View, []int) {
		t.Helper()
		if _, err := p.WriteVec(msgs); err != nil {
			t.Fatalf("WriteVec: %v", err)
		}
		var views []*View
		var slots []int
		for i, msg := range msgs {
			v, err := c.Next()
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			if !bytes.Equal(v.Bytes(), msg) {
				t.Fatalf("record %d: payload mismatch", i)
			}
			views = append(views, v)
			slots = append(slots, slotOf(r, v))
		}
		return views, slots
	}
	releaseAll := func(views []*View) {
		for _, v := range views {
			v.Release()
		}
	}

	// Drained: successive records start at slot 0.
	for i, n := range []int{3 * 4096, 2*4096 - 1, 100, 4096} {
		if _, err := p.Write(fill(n, byte(i))); err != nil {
			t.Fatalf("write: %v", err)
		}
		v, err := c.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if got := slotOf(r, v); got != 0 {
			t.Fatalf("record %d on a drained ring starts at slot %d, want 0", i, got)
		}
		v.Release()
	}

	// One view outstanding: no rewind, the next record follows it.
	held, slots := claim(fill(4096, 1))
	if slots[0] != 0 {
		t.Fatalf("first record at slot %d, want 0", slots[0])
	}
	next, slots := claim(fill(4096, 2))
	if slots[0] != 1 {
		t.Fatalf("record behind an outstanding view at slot %d, want 1", slots[0])
	}
	releaseAll(held)
	releaseAll(next)

	// Drained with the cursor at slot 2: a 3-slot record does not fit
	// pad plus record, so it stays at the cursor.
	long, slots := claim(fill(3*4096, 3))
	if slots[0] != 2 {
		t.Fatalf("record longer than the cursor offset at slot %d, want 2", slots[0])
	}
	releaseAll(long)

	// Drained with the cursor at slot 5: a train restarts at slot 0.
	train, slots := claim(fill(4096, 4), fill(2*4096, 5), fill(7, 6))
	if slots[0] != 0 || slots[1] != 1 || slots[2] != 3 {
		t.Fatalf("train after a drain at slots %v, want [0 1 3]", slots)
	}
	releaseAll(train)
}

// TestRingHostileDescriptor feeds the consumer descriptors whose run
// crosses the end of the slot array. Both must fail as ErrCorrupt; a
// data record there used to slice past the array and panic.
func TestRingHostileDescriptor(t *testing.T) {
	for _, kind := range []int{kindData, kindPad} {
		seg, err := NewHeapSegment(tinyCfg)
		if err != nil {
			t.Fatalf("NewHeapSegment: %v", err)
		}
		r := seg.Ring(0)
		last := uint64(tinyCfg.SlotCount - 1)
		atomic.StoreUint64(r.tail(), last)
		atomic.StoreUint64(r.head(), last+2)
		atomic.StoreUint32(r.prodClosed(), 1)
		w0, w1 := r.descAt(int(last))
		*w0, *w1 = packDesc(kind, 2*tinyCfg.SlotSize), last
		if _, err := r.Consumer().Next(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("kind %d: 2-slot run at the last slot: %v, want ErrCorrupt", kind, err)
		}
		seg.Close()
	}
}

// TestRingClaimAllocs checks that a 1 MiB record through a
// default-geometry ring allocates nothing, pads included: on a drained
// ring every deposit is preceded by a rewind pad.
func TestRingClaimAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates")
	}
	p, c, _ := heapPair(t, Config{}.WithDefaults())
	msg := fill(1<<20, 7)
	vec := [][]byte{msg}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"WriteVec", func() error { _, err := p.WriteVec(vec); return err }},
		{"Write", func() error { _, err := p.Write(msg); return err }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.write(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			v, err := c.Next()
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			v.Release()
		})
		if allocs != 0 {
			t.Errorf("%s+Next+Release: %v allocs per record, want 0", tc.name, allocs)
		}
	}
}

func TestRingTooLarge(t *testing.T) {
	p, _, _ := heapPair(t, tinyCfg)
	if _, err := p.Write(make([]byte, tinyCfg.MaxPayload()+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize write: %v, want ErrTooLarge", err)
	}
}

func TestRingStall(t *testing.T) {
	p, _, _ := heapPair(t, tinyCfg)
	p.StallTimeout = 20 * time.Millisecond
	// Fill the ring; nothing is consumed, so the next write stalls out.
	for i := 0; i < 2; i++ {
		if _, err := p.Write(make([]byte, 4*4096)); err != nil {
			t.Fatalf("fill write %d: %v", i, err)
		}
	}
	start := time.Now()
	if _, err := p.Write(make([]byte, 4096)); !errors.Is(err, ErrRingStalled) {
		t.Fatalf("stalled write: %v, want ErrRingStalled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stall timeout not honored")
	}
}

// TestRingOutOfOrderRelease claims three records and releases them
// newest-first; credit must only return once the oldest is released.
func TestRingOutOfOrderRelease(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	p.StallTimeout = 20 * time.Millisecond
	var views []*View
	for i := 0; i < 4; i++ {
		if _, err := p.Write(fill(2*4096, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		v, err := c.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		views = append(views, v)
	}
	// Ring is full. Releasing only the newest returns no credit.
	views[3].Release()
	views[2].Release()
	views[1].Release()
	if _, err := p.Write(make([]byte, 4*4096)); !errors.Is(err, ErrRingStalled) {
		t.Fatalf("write with oldest view live: %v, want ErrRingStalled", err)
	}
	if got := c.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
	views[0].Release()
	if _, err := p.Write(make([]byte, 4*4096)); err != nil {
		t.Fatalf("write after full release: %v", err)
	}
}

func TestRingCorruptDetected(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	p.CorruptNext()
	if _, err := p.Write(fill(100, 1)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("next on corrupt record: %v, want ErrCorrupt", err)
	}
}

func TestRingProducerClose(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	if _, err := p.Write(fill(10, 9)); err != nil {
		t.Fatalf("write: %v", err)
	}
	p.Close()
	if _, err := p.Write(fill(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v, want ErrClosed", err)
	}
	v, err := c.Next()
	if err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	v.Release()
	if _, err := c.Next(); !errors.Is(err, ErrProducerDone) {
		t.Fatalf("next after drain: %v, want ErrProducerDone", err)
	}
}

func TestRingConsumerCloseFailsProducer(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	p.StallTimeout = time.Second
	c.Close()
	// Fill the credit, then the blocked write must notice consClosed.
	for {
		_, err := p.Write(make([]byte, 4*4096))
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("write to closed consumer: %v, want ErrPeerDead", err)
		}
		break
	}
	if _, err := c.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("next on closed consumer: %v, want ErrClosed", err)
	}
}

// TestRingConcurrent streams records through a small ring from a
// separate goroutine, exercising credit waits, pads, and release
// paths under the race detector.
func TestRingConcurrent(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	const records = 2000
	errc := make(chan error, 1)
	go func() {
		defer p.Close()
		for i := 0; i < records; i++ {
			msg := fill(1+(i*733)%(3*4096), byte(i))
			if _, err := p.Write(msg); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < records; i++ {
		v, err := c.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		want := fill(1+(i*733)%(3*4096), byte(i))
		if !bytes.Equal(v.Bytes(), want) {
			t.Fatalf("record %d corrupted", i)
		}
		v.Release()
	}
	if _, err := c.Next(); !errors.Is(err, ErrProducerDone) {
		t.Fatalf("tail: %v, want ErrProducerDone", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("producer: %v", err)
	}
}

// TestSegmentViewKeepsMapping proves a live view pins the segment: the
// owner can Close while the application still reads the bytes.
func TestSegmentViewKeepsMapping(t *testing.T) {
	seg, err := NewHeapSegment(tinyCfg)
	if err != nil {
		t.Fatalf("NewHeapSegment: %v", err)
	}
	before := LiveSegments()
	p, c := seg.Ring(0).Producer(), seg.Ring(0).Consumer()
	if _, err := p.Write(fill(100, 3)); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := c.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	seg.Close()
	if LiveSegments() != before {
		t.Fatal("segment released while a view was outstanding")
	}
	if !bytes.Equal(v.Bytes(), fill(100, 3)) {
		t.Fatal("view corrupted after owner close")
	}
	v.Release()
	if LiveSegments() != before-1 {
		t.Fatal("segment not released after last view")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	if _, err := p.Write(fill(10, 0)); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := c.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	v.Release()
}

// TestRingWriteVec exercises the multi-slot reservation: a batch of
// records published through one WriteVec arrives record-for-record
// identical to a loop of Writes, across wrap boundaries and with
// batches larger than the ring (which split at record boundaries).
func TestRingWriteVec(t *testing.T) {
	p, c, _ := heapPair(t, tinyCfg)
	done := make(chan error, 1)
	var trains [][][]byte
	for i := 0; i < 40; i++ {
		train := [][]byte{
			fill(4096+i, byte(i)),
			fill(7, byte(i+1)),
			fill(2*4096-9, byte(i+2)),
			fill(0, 0),
			fill(3*4096, byte(i+3)),
		}
		trains = append(trains, train)
	}
	go func() {
		for _, train := range trains {
			var want int64
			for _, s := range train {
				want += int64(len(s))
			}
			n, err := p.WriteVec(train)
			if err == nil && n != want {
				err = errors.New("short WriteVec")
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, train := range trains {
		for j, msg := range train {
			v, err := c.Next()
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			if !bytes.Equal(v.Bytes(), msg) {
				t.Fatalf("segment %d: payload mismatch (%d bytes)", j, len(msg))
			}
			v.Release()
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("WriteVec: %v", err)
	}
}

func TestRingWriteVecTooLarge(t *testing.T) {
	p, _, _ := heapPair(t, tinyCfg)
	_, err := p.WriteVec([][]byte{make([]byte, 4096), make([]byte, tinyCfg.MaxPayload()+1)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize WriteVec: %v, want ErrTooLarge", err)
	}
}

// FuzzRingClaim plays a hostile producer: arbitrary descriptor words
// and head/tail cursors on a closed ring. The consumer must answer with
// views inside the slot array or an error, in bounded steps, and never
// panic. Each 16-byte chunk of descs fills one descriptor in slot
// order; its tag word is taken relative to tail, so small values reach
// the tag check.
func FuzzRingClaim(f *testing.F) {
	desc := func(kind, size int, tagDelta uint64) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, packDesc(kind, size))
		binary.LittleEndian.PutUint64(b[8:], tagDelta)
		return b
	}
	last := uint64(tinyCfg.SlotCount - 1)
	crossing := append(make([]byte, 16*int(last)), desc(kindData, 2*4096, 0)...)
	f.Add(last+2, last, crossing)
	f.Add(uint64(3), uint64(0), append(desc(kindData, 100, 0), desc(kindPad, 2*4096, 1)...))
	f.Add(uint64(1)<<40, uint64(5), []byte{0xff})

	f.Fuzz(func(t *testing.T, head, tail uint64, descs []byte) {
		seg, err := NewHeapSegment(tinyCfg)
		if err != nil {
			t.Fatalf("NewHeapSegment: %v", err)
		}
		defer seg.Close()
		r := seg.Ring(0)
		for i := 0; i+16 <= len(descs) && i < len(r.desc); i += 16 {
			w0, w1 := r.descAt(i / 16)
			*w0 = binary.LittleEndian.Uint64(descs[i:])
			*w1 = tail + binary.LittleEndian.Uint64(descs[i+8:])
		}
		atomic.StoreUint64(r.head(), head)
		atomic.StoreUint64(r.tail(), tail)
		atomic.StoreUint32(r.prodClosed(), 1)
		c := r.Consumer()
		// Every accepted record advances tail past its tag, so each
		// descriptor is accepted at most once.
		for step := 0; step <= tinyCfg.SlotCount; step++ {
			v, err := c.Next()
			if err != nil {
				return
			}
			b := v.Bytes()
			off := uintptr(unsafe.Pointer(unsafe.SliceData(b))) - uintptr(unsafe.Pointer(&r.data[0]))
			if off+uintptr(cap(b)) > uintptr(len(r.data)) {
				t.Fatalf("view [%d, +%d) outside the %d-byte slot array", off, cap(b), len(r.data))
			}
			v.Release()
		}
		t.Fatal("consumer still claiming after every descriptor was used")
	})
}
