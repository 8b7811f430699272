// Package shmem is the shared-memory data plane: a cross-process
// segment allocator plus credit-based descriptor rings that let two
// co-located processes exchange bulk payloads with a single copy on
// the producer side and zero copies on the consumer side.
//
// The paper separates control and data transfers so a payload is
// touched exactly once in transit ("direct deposit", §4). For two
// processes on one host the logical endpoint of that idea is a shared
// segment the sender deposits into and the receiver claims views out
// of: the payload is written once — straight into receiver-mapped
// memory — and never touched again until the application reads it.
//
// A Segment is one memfd-backed mapping holding two single-producer/
// single-consumer rings, one per direction. Each ring is a fixed-size
// slot array fronted by a descriptor array and a header page with the
// producer and consumer cursors. All cross-process coordination is
// sync/atomic on the mapped header — there are no cross-process
// mutexes, so a peer dying while holding "the lock" is impossible by
// construction. Publication order (descriptor stores, then a
// release-store of the head cursor) plays the seqlock role for the
// descriptor/cursor pair: a consumer that observes the new head is
// guaranteed to observe the descriptors and payload bytes behind it.
//
// Ring geometry and layout (see docs/SHM.md for the full diagram):
//
//	header page | descriptor array | slot array
//
// A record occupies a contiguous run of slots and never wraps: when a
// record would cross the ring end, the producer publishes a pad record
// covering the tail slots and restarts at slot zero, so every payload
// view is contiguous (and, because slots are page-sized, page-aligned).
// A producer that finds the ring drained also pads to the end and
// restarts at slot zero whenever the record fits there, so a steady
// stream keeps reusing the same cache-resident slots.
// Credit is the slot count: a producer may claim a run while
// head+run-tail <= slotCount, and stalls (bounded by its StallTimeout)
// otherwise. Consumers retire records strictly in ring order; views
// released out of order are parked until the runs before them drain.
package shmem

import (
	"errors"
	"sync/atomic"
)

// Ring header layout. Cursor fields sit on their own cache lines so
// the producer bouncing head and the consumer bouncing tail do not
// false-share.
const (
	ringMagic   uint32 = 0x5A524E47 // "ZRNG"
	ringVersion uint32 = 1

	offMagic      = 0
	offVersion    = 4
	offSlotSize   = 8
	offSlotCount  = 12
	offHead       = 64  // producer cursor (monotonic slot count)
	offTail       = 128 // consumer cursor (monotonic slot count)
	offProdClosed = 192 // producer finished (drain then EOF)
	offConsClosed = 256 // consumer gone (producer fails fast)

	hdrBytes = 4096
	// descBytes is the size of one descriptor: a word packing the
	// record kind and byte length, and a word holding the sequence tag
	// (the head value the record was claimed at) that lets the consumer
	// detect torn or corrupted descriptors.
	descBytes = 16

	kindData = 1
	kindPad  = 2
)

// Errors surfaced by ring producers and consumers. ErrRingStalled and
// ErrTooLarge are the fallback triggers: the ORB degrades the transfer
// to the marshaled path instead of failing the call.
var (
	// ErrRingStalled: the consumer did not free credit within the
	// producer's stall timeout (or a fault injector simulated that).
	ErrRingStalled = errors.New("shmem: ring stalled (no credit)")
	// ErrTooLarge: the payload cannot fit the ring even when empty.
	ErrTooLarge = errors.New("shmem: payload exceeds ring capacity")
	// ErrPeerDead: the peer process vanished (watchdog EOF).
	ErrPeerDead = errors.New("shmem: peer dead")
	// ErrClosed: this side already closed the ring.
	ErrClosed = errors.New("shmem: ring closed")
	// ErrCorrupt: a descriptor failed its sequence-tag check.
	ErrCorrupt = errors.New("shmem: corrupt ring descriptor")
	// ErrUnsupported: the platform has no shared-memory data plane.
	ErrUnsupported = errors.New("shmem: not supported on this platform")
)

// Config is the ring geometry. The zero value selects the defaults.
type Config struct {
	// SlotSize is the slot granularity in bytes; must be a multiple of
	// 4096 so record payloads start page-aligned. Default 4096.
	SlotSize int
	// SlotCount is the number of slots per direction. Default 8192
	// (32 MiB of payload per direction with the default slot size).
	SlotCount int
}

// WithDefaults resolves zero fields to the default geometry.
func (c Config) WithDefaults() Config {
	if c.SlotSize == 0 {
		c.SlotSize = 4096
	}
	if c.SlotCount == 0 {
		c.SlotCount = 8192
	}
	return c
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SlotSize < 4096 || c.SlotSize%4096 != 0 {
		return errors.New("shmem: SlotSize must be a positive multiple of 4096")
	}
	if c.SlotCount < 8 {
		return errors.New("shmem: SlotCount must be at least 8")
	}
	return nil
}

// descArea returns the descriptor-array size, page rounded.
func (c Config) descArea() int {
	n := c.SlotCount * descBytes
	return (n + hdrBytes - 1) &^ (hdrBytes - 1)
}

// RingBytes returns the mapped size of one direction.
func (c Config) RingBytes() int {
	return hdrBytes + c.descArea() + c.SlotCount*c.SlotSize
}

// SegmentBytes returns the mapped size of a full two-direction segment.
func (c Config) SegmentBytes() int { return 2 * c.RingBytes() }

// MaxPayload returns the largest record the ring accepts: half the
// slot array, which guarantees a record plus its worst-case wrap pad
// always fit the ring's credit.
func (c Config) MaxPayload() int { return c.SlotSize * c.SlotCount / 2 }

// liveSegments counts mapped segments process-wide (leak tests).
var liveSegments atomic.Int64

// LiveSegments reports how many segments this process currently has
// mapped. The server-kill test drives this to zero to prove that a
// dead peer cannot strand a mapping.
func LiveSegments() int64 { return liveSegments.Load() }
