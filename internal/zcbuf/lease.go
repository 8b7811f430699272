package zcbuf

import (
	"sync"
	"time"
)

// LeaseID names one outstanding deposit-buffer lease.
type LeaseID uint64

// LeaseTable tracks buffers handed to in-progress bulk transfers so an
// aborted transfer cannot strand pooled memory: the receiver grants a
// lease before blocking in the deposit read and settles it when the
// read completes. A sweeper expires overdue leases, releasing the
// lease's buffer reference and running the lease's onExpire hook
// (typically: close the data channel so the blocked reader unwinds).
//
// Reference discipline: Grant retains the buffer, so the reader's own
// reference stays valid even if the lease expires mid-read — expiry
// only drops the lease's reference and unblocks the reader, whose
// error path then performs the final Release that returns the buffer
// to the pool.
//
// Sweep takes the current time as a parameter, so tests drive expiry
// with a fake clock.
type LeaseTable struct {
	// Observer, if set, is notified of lease lifecycle transitions with
	// the leased buffer's length. It is called outside the table lock
	// and must be set before the table is first used.
	Observer func(ev LeaseEvent, bytes int)

	mu     sync.Mutex
	next   uint64
	leases map[LeaseID]*lease
	free   []*lease
}

// LeaseEvent is a lease lifecycle transition reported to the Observer.
type LeaseEvent uint8

const (
	// LeaseGranted: a buffer was checked out to an in-progress transfer.
	LeaseGranted LeaseEvent = iota
	// LeaseSettled: the transfer completed and released the lease.
	LeaseSettled
	// LeaseExpired: the sweeper reclaimed an overdue lease.
	LeaseExpired
)

// observe reports ev for a lease over n bytes, if an Observer is set.
func (t *LeaseTable) observe(ev LeaseEvent, n int) {
	if t.Observer != nil {
		t.Observer(ev, n)
	}
}

type lease struct {
	buf      *Buffer // nil for buffer-less (GrantFunc) leases
	bytes    int     // observed size for buffer-less leases
	deadline time.Time
	onExpire func()
	// notify, if set, fires exactly once when the lease leaves the
	// table: notify(false) on Settle (before the buffer reference is
	// released), notify(true) on Sweep expiry (after onExpire, before
	// the release). SendBuffers uses it to learn when the kernel has
	// let go of a buffer sent by reference, which is when the buffer's
	// completion callback may fire.
	notify func(expired bool)
}

// size returns the byte count to report to the Observer.
func (l *lease) size() int {
	if l.buf != nil {
		return l.buf.Len()
	}
	return l.bytes
}

// maxFreeLeases bounds the lease free list.
const maxFreeLeases = 32

// Grant retains b and registers a lease that expires at deadline.
// onExpire (optional) runs when the sweeper reclaims the lease.
func (t *LeaseTable) Grant(b *Buffer, deadline time.Time, onExpire func()) LeaseID {
	b.Retain()
	t.mu.Lock()
	if t.leases == nil {
		t.leases = make(map[LeaseID]*lease)
	}
	t.next++
	id := LeaseID(t.next)
	var l *lease
	if n := len(t.free); n > 0 {
		l = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		l = new(lease)
	}
	l.buf, l.deadline, l.onExpire = b, deadline, onExpire
	t.leases[id] = l
	t.mu.Unlock()
	t.observe(LeaseGranted, b.Len())
	return id
}

// GrantNotify is Grant with a completion hook: notify fires exactly
// once when the lease leaves the table — notify(false) from Settle,
// notify(true) from Sweep — in both cases while the lease's buffer
// reference is still held. The kernel zero-copy send path grants its
// deposit buffers this way: the lease pins the pages until the
// MSG_ZEROCOPY completion settles it, and the sweeper is the backstop
// when a completion never arrives. This is the first step toward the
// registered-buffer API on the roadmap.
func (t *LeaseTable) GrantNotify(b *Buffer, deadline time.Time, onExpire func(), notify func(expired bool)) LeaseID {
	b.Retain()
	t.mu.Lock()
	if t.leases == nil {
		t.leases = make(map[LeaseID]*lease)
	}
	t.next++
	id := LeaseID(t.next)
	var l *lease
	if n := len(t.free); n > 0 {
		l = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		l = new(lease)
	}
	l.buf, l.deadline, l.onExpire, l.notify = b, deadline, onExpire, notify
	t.leases[id] = l
	t.mu.Unlock()
	t.observe(LeaseGranted, b.Len())
	return id
}

// GrantFunc registers a buffer-less lease covering an in-progress
// transfer of bytes that has no pooled buffer yet — the shared-memory
// claim window, where the receiver blocks waiting for a ring record
// rather than reading into pre-granted memory. Expiry runs onExpire
// (which must unblock the claimer, e.g. by closing the data channel);
// there is no buffer reference to drop.
func (t *LeaseTable) GrantFunc(bytes int, deadline time.Time, onExpire func()) LeaseID {
	t.mu.Lock()
	if t.leases == nil {
		t.leases = make(map[LeaseID]*lease)
	}
	t.next++
	id := LeaseID(t.next)
	var l *lease
	if n := len(t.free); n > 0 {
		l = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		l = new(lease)
	}
	l.buf, l.bytes, l.deadline, l.onExpire = nil, bytes, deadline, onExpire
	t.leases[id] = l
	t.mu.Unlock()
	t.observe(LeaseGranted, bytes)
	return id
}

// Settle completes a lease: the transfer finished (or failed on its
// own) and the lease's buffer reference is released. It reports whether
// the lease was still outstanding; false means the sweeper already
// expired it.
func (t *LeaseTable) Settle(id LeaseID) bool {
	t.mu.Lock()
	l := t.leases[id]
	if l != nil {
		delete(t.leases, id)
	}
	t.mu.Unlock()
	if l == nil {
		return false
	}
	if l.notify != nil {
		l.notify(false)
	}
	buf, size := l.buf, l.size()
	t.recycle(l)
	t.observe(LeaseSettled, size)
	if buf != nil {
		buf.Release()
	}
	return true
}

// Sweep expires every lease due at now, running its onExpire hook and
// releasing its buffer reference. It returns the number of leases
// reclaimed.
func (t *LeaseTable) Sweep(now time.Time) int {
	t.mu.Lock()
	var due []*lease
	for id, l := range t.leases {
		if !l.deadline.After(now) {
			delete(t.leases, id)
			due = append(due, l)
		}
	}
	t.mu.Unlock()
	for _, l := range due {
		if l.onExpire != nil {
			l.onExpire()
		}
		if l.notify != nil {
			l.notify(true)
		}
		buf, size := l.buf, l.size()
		t.recycle(l)
		t.observe(LeaseExpired, size)
		if buf != nil {
			buf.Release()
		}
	}
	return len(due)
}

// Pending returns the number of outstanding leases.
func (t *LeaseTable) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// recycle returns a lease struct to the free list.
func (t *LeaseTable) recycle(l *lease) {
	*l = lease{}
	t.mu.Lock()
	if len(t.free) < maxFreeLeases {
		t.free = append(t.free, l)
	}
	t.mu.Unlock()
}
