package zcbuf

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestGetReturnsAligned(t *testing.T) {
	var p Pool
	for _, n := range []int{0, 1, 100, PageSize, PageSize + 1, 1 << 20} {
		b, err := p.Get(n)
		if err != nil {
			t.Fatalf("Get(%d): %v", n, err)
		}
		if !b.IsPageAligned() {
			t.Fatalf("Get(%d): not page aligned", n)
		}
		if b.Len() != n {
			t.Fatalf("Get(%d): Len=%d", n, b.Len())
		}
		if b.Cap() < n {
			t.Fatalf("Get(%d): Cap=%d", n, b.Cap())
		}
		if b.Refs() != 1 {
			t.Fatalf("Get(%d): refs=%d", n, b.Refs())
		}
		b.Release()
	}
}

func TestGetNegativeRejected(t *testing.T) {
	var p Pool
	if _, err := p.Get(-1); err == nil {
		t.Fatal("want error for negative size")
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	b, err := p.Get(10000)
	if err != nil {
		t.Fatal(err)
	}
	first := &b.Bytes()[0]
	b.Release()
	b2, err := p.Get(9000) // same size class (16 KiB)
	if err != nil {
		t.Fatal(err)
	}
	if &b2.Bytes()[0] != first {
		t.Fatal("expected buffer reuse within a size class")
	}
	st := p.Stats()
	if st.Allocs != 1 || st.Reuses != 1 {
		t.Fatalf("stats %+v", st)
	}
	b2.Release()
	if p.Stats().Outstanding != 0 {
		t.Fatalf("outstanding %d", p.Stats().Outstanding)
	}
}

func TestRetainReleaseLifecycle(t *testing.T) {
	var p Pool
	b, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	b.Retain()
	if b.Refs() != 2 {
		t.Fatalf("refs=%d", b.Refs())
	}
	b.Release()
	if b.Refs() != 1 {
		t.Fatalf("refs=%d", b.Refs())
	}
	b.Release()
	if got := p.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding %d", got)
	}
}

func TestReleasePanicsOnUnderflow(t *testing.T) {
	b := Wrap([]byte{1})
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double release")
		}
	}()
	b.Release()
}

func TestRetainPanicsAfterFinalRelease(t *testing.T) {
	b := Wrap([]byte{1})
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on retain-after-release")
		}
	}()
	b.Retain()
}

func TestSetLenBounds(t *testing.T) {
	var p Pool
	b, err := p.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if err := b.SetLen(b.Cap()); err != nil {
		t.Fatalf("SetLen(Cap): %v", err)
	}
	if err := b.SetLen(b.Cap() + 1); err == nil {
		t.Fatal("want error past capacity")
	}
	if err := b.SetLen(-1); err == nil {
		t.Fatal("want error for negative length")
	}
}

func TestWrapKeepsContents(t *testing.T) {
	data := []byte{9, 8, 7}
	b := Wrap(data)
	if &b.Bytes()[0] != &data[0] {
		t.Fatal("Wrap must alias, not copy")
	}
	b.Release() // unpooled: must not panic or pool anything
}

func TestClassForRounding(t *testing.T) {
	cases := map[int]int{
		0:            PageSize,
		1:            PageSize,
		PageSize:     PageSize,
		PageSize + 1: 2 * PageSize,
		3 * PageSize: 4 * PageSize,
	}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Fatalf("classFor(%d)=%d want %d", n, got, want)
		}
	}
}

// TestExactAllocation checks that a buffer reserves only its class when
// the allocator hands out a page-aligned block of that size, which the
// Go allocator does for every page-multiple class: no page of reserve.
func TestExactAllocation(t *testing.T) {
	var p Pool
	for class := PageSize; class <= 1<<20; class <<= 1 {
		b, err := p.Get(class)
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsPageAligned() || b.Cap() != class {
			t.Fatalf("class %d: aligned=%v cap=%d", class, b.IsPageAligned(), b.Cap())
		}
		if len(b.mem) != class {
			t.Fatalf("class %d reserved %d bytes", class, len(b.mem))
		}
		b.Release()
	}
}

func TestConcurrentGetRelease(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, err := p.Get(1 + i%50000)
				if err != nil {
					t.Error(err)
					return
				}
				b.Bytes()[0] = byte(i)
				b.Release()
			}
		}()
	}
	wg.Wait()
	if got := p.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding %d after all releases", got)
	}
}

func TestPropertyAlignmentAndLength(t *testing.T) {
	var p Pool
	f := func(raw uint32) bool {
		n := int(raw % (8 << 20))
		b, err := p.Get(n)
		if err != nil {
			return false
		}
		ok := b.IsPageAligned() && b.Len() == n && b.Cap() >= n &&
			b.Cap()%PageSize == 0 && len(b.Bytes()) == n
		b.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOutstandingNeverNegative(t *testing.T) {
	var p Pool
	f := func(sizes []uint16) bool {
		var bufs []*Buffer
		for _, s := range sizes {
			b, err := p.Get(int(s))
			if err != nil {
				return false
			}
			bufs = append(bufs, b)
		}
		for _, b := range bufs {
			b.Release()
		}
		st := p.Stats()
		return st.Outstanding >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimReleasesFreeLists(t *testing.T) {
	var p Pool
	b, err := p.Get(100000)
	if err != nil {
		t.Fatal(err)
	}
	first := &b.Bytes()[0]
	b.Release()
	p.Trim()
	b2, err := p.Get(100000)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	if &b2.Bytes()[0] == first {
		t.Fatal("Trim did not discard the free list")
	}
	if p.Stats().Allocs != 2 {
		t.Fatalf("allocs %d", p.Stats().Allocs)
	}
}
