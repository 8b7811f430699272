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
// (typically: close the stream or retire the ring, so the blocked
// reader unwinds).
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
	bytes    int     // size reported to the Observer
	deadline time.Time
	onExpire func()
}

// maxFreeLeases bounds the lease free list.
const maxFreeLeases = 32

// Grant retains b and registers a lease that expires at deadline.
// onExpire (optional) runs when the sweeper reclaims the lease.
func (t *LeaseTable) Grant(b *Buffer, deadline time.Time, onExpire func()) LeaseID {
	b.Retain()
	return t.grant(b, b.Len(), deadline, onExpire)
}

// GrantFunc registers a buffer-less lease covering an in-progress
// transfer of bytes that has no pooled buffer yet — the shared-memory
// claim window, where the receiver blocks waiting for a ring record
// rather than reading into pre-granted memory. Expiry runs onExpire
// (which must unblock the claimer, e.g. by retiring the ring);
// there is no buffer reference to drop.
func (t *LeaseTable) GrantFunc(bytes int, deadline time.Time, onExpire func()) LeaseID {
	return t.grant(nil, bytes, deadline, onExpire)
}

// grant registers a lease over buf (nil for a buffer-less lease) that
// the Observer sees as bytes long.
func (t *LeaseTable) grant(buf *Buffer, bytes int, deadline time.Time, onExpire func()) LeaseID {
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
	l.buf, l.bytes, l.deadline, l.onExpire = buf, bytes, deadline, onExpire
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
	buf, size := l.buf, l.bytes
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
		buf, size := l.buf, l.bytes
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
