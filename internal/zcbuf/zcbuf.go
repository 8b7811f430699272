// Package zcbuf provides the page-aligned, reference-counted buffers
// that back the zero-copy octet streams (sequence<ZC_Octet>, §4.3).
//
// The paper extends MICO's SequenceTmpl<> with "two new pointers, one
// to a reserved memory block, another to a page aligned area in this
// buffer and an integer value for the effective buffer size". Buffer
// reproduces that layout: a reserved allocation (mem), a page-aligned
// window into it (data), and an effective length. A Pool recycles
// buffers so steady-state transfers allocate nothing, which is what
// lets the receive path deposit every payload into ready memory.
package zcbuf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PageSize is the alignment granularity of deposit buffers. The
// paper's zero-copy socket layer provides its optimization "for
// transfer sizes starting at 4 KByte pages" (§5.1).
const PageSize = 4096

// Buffer is a page-aligned block of memory with an effective length,
// shared by reference counting. It is the Go analogue of the paper's
// sequence<ZC_Octet>.
type Buffer struct {
	pool *Pool
	mem  []byte // reserved block (owns the allocation)
	data []byte // page-aligned window, cap = usable capacity
	n    int    // effective length
	refs atomic.Int32
	// shared, when non-nil, owns the memory behind data (a
	// shared-memory ring view); the final Release forwards to it
	// instead of a pool.
	shared Releaser
}

// Bytes returns the effective contents: the first Len bytes of the
// aligned window. The slice aliases the buffer; it must not be used
// after the last Release.
func (b *Buffer) Bytes() []byte { return b.data[:b.n] }

// Len returns the effective length in bytes.
func (b *Buffer) Len() int { return b.n }

// Cap returns the usable (aligned) capacity in bytes.
func (b *Buffer) Cap() int { return cap(b.data) }

// SetLen changes the effective length, the "length-method ... used for
// the initialization of a data block of a certain length" (§4.3).
func (b *Buffer) SetLen(n int) error {
	if n < 0 || n > cap(b.data) {
		return fmt.Errorf("zcbuf: SetLen(%d) outside capacity %d", n, cap(b.data))
	}
	b.n = n
	b.data = b.data[:n]
	return nil
}

// Retain adds a reference. Every Retain must be paired with a Release.
func (b *Buffer) Retain() *Buffer {
	if b.refs.Add(1) <= 1 {
		panic("zcbuf: Retain on released buffer")
	}
	return b
}

// Release drops a reference; the final release returns the buffer to
// its pool. Using a buffer after its final Release is a bug.
func (b *Buffer) Release() {
	switch refs := b.refs.Add(-1); {
	case refs == 0:
		if b.shared != nil {
			r := b.shared
			b.pool, b.mem, b.data, b.n, b.shared = nil, nil, nil, 0, nil
			sharedEnvelopes.Put(b)
			r.Release()
			return
		}
		if b.pool != nil {
			b.pool.put(b)
		}
	case refs < 0:
		panic("zcbuf: Release without matching Retain/Get")
	}
}

// Refs reports the current reference count (for tests and stats).
func (b *Buffer) Refs() int { return int(b.refs.Load()) }

// Aligned reports whether p starts on a page boundary.
func Aligned(p []byte) bool {
	if len(p) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&p[0]))%PageSize == 0
}

// PoolStats counts pool activity.
type PoolStats struct {
	// Allocs is the number of fresh OS allocations performed.
	Allocs int64
	// Reuses is the number of Gets satisfied from the free list.
	Reuses int64
	// Outstanding is the number of buffers currently checked out.
	Outstanding int64
}

// Pool recycles page-aligned buffers in power-of-two page classes.
// The zero value is ready to use. Pools are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes map[int][]*Buffer // size class (bytes) -> free buffers
	stats   PoolStats
}

// classFor rounds n up to a power-of-two number of pages (min 1 page).
func classFor(n int) int {
	c := PageSize
	for c < n {
		c <<= 1
	}
	return c
}

// Get returns a page-aligned buffer with effective length n and a
// reference count of 1.
func (p *Pool) Get(n int) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("zcbuf: Get(%d): negative size", n)
	}
	class := classFor(n)
	p.mu.Lock()
	free := p.classes[class]
	var b *Buffer
	if len(free) > 0 {
		b = free[len(free)-1]
		p.classes[class] = free[:len(free)-1]
		p.stats.Reuses++
	} else {
		p.stats.Allocs++
	}
	p.stats.Outstanding++
	p.mu.Unlock()

	if b == nil {
		b = newAligned(p, class)
	}
	b.refs.Store(1)
	if err := b.SetLen(n); err != nil {
		return nil, err
	}
	return b, nil
}

// newAligned allocates a buffer whose window starts on a page boundary.
// The Go allocator page-aligns every page-multiple size class and every
// large object, so an exact allocation is tried first and the window is
// the whole block: a 4 KiB buffer takes 4 KiB, not 8. Should the block
// not be aligned, it reserves class+PageSize bytes and slides the window
// to the first page boundary, the paper's reserved-block / aligned-area
// split.
func newAligned(p *Pool, class int) *Buffer {
	if mem := make([]byte, class); Aligned(mem) {
		return &Buffer{pool: p, mem: mem, data: mem}
	}
	mem := make([]byte, class+PageSize)
	off := 0
	if addr := uintptr(unsafe.Pointer(&mem[0])) % PageSize; addr != 0 {
		off = PageSize - int(addr)
	}
	return &Buffer{pool: p, mem: mem, data: mem[off : off+class : off+class]}
}

func (p *Pool) put(b *Buffer) {
	class := cap(b.data)
	p.mu.Lock()
	if p.classes == nil {
		p.classes = make(map[int][]*Buffer)
	}
	// Cap the free list per class so a burst of giant transfers does
	// not pin memory forever.
	if len(p.classes[class]) < 32 {
		p.classes[class] = append(p.classes[class], b)
	}
	p.stats.Outstanding--
	p.mu.Unlock()
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Trim discards all free buffers, returning their memory to the
// garbage collector (for idle phases after a burst of large
// transfers). Outstanding buffers are unaffected.
func (p *Pool) Trim() {
	p.mu.Lock()
	p.classes = nil
	p.mu.Unlock()
}

// Wrap adopts an existing page-aligned slice as an unpooled Buffer with
// reference count 1. It is used when the application already owns
// aligned memory (the paper's "buffers under user control", §3.2).
// If p is not page-aligned, Wrap still succeeds — the ORB then treats
// the transfer as ZC-ineligible on paths that require alignment — but
// Aligned() reports the truth.
func Wrap(p []byte) *Buffer {
	b := &Buffer{mem: p, data: p, n: len(p)}
	b.refs.Store(1)
	return b
}

// Releaser returns externally owned memory to its owner. It mirrors
// transport.Releaser structurally, so a shared-memory ring view's
// release token plugs straight in without an adapter allocation.
type Releaser interface {
	Release()
}

// sharedEnvelopes recycles the Buffer headers of WrapShared so the
// shm claim path does not allocate an envelope per deposit.
var sharedEnvelopes = sync.Pool{New: func() any { return new(Buffer) }}

// WrapShared adopts externally owned memory — typically a zero-copy
// view into a shared-memory ring — as a Buffer with reference count 1.
// The final Release forwards to r, returning the view (and its ring
// credit) to the owner. The envelope itself is pooled.
func WrapShared(p []byte, r Releaser) *Buffer {
	b := sharedEnvelopes.Get().(*Buffer)
	b.pool, b.mem, b.data, b.n, b.shared = nil, p, p, len(p), r
	b.refs.Store(1)
	return b
}

// IsPageAligned reports whether the buffer's window starts on a page
// boundary.
func (b *Buffer) IsPageAligned() bool {
	if cap(b.data) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b.data)))%PageSize == 0
}
