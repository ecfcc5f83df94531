package click

import (
	"sync/atomic"
)

// The lock-free bounded ring used by the fused data-plane fast path: it
// carries single-producer/single-consumer handoffs (RingDevice
// boundaries, fused Queue segments the compiler proved single-producer).
// Head and tail live on their own cache lines so the producer and
// consumer cores never false-share, and batch operations make a burst
// cost one pair of atomic publishes instead of one per packet.
//
// A consumer that finds the ring empty may block instead of polling:
// ArmWake registers its wake channel, and the producer's next publish
// signals it (see ArmWake for why no wake-up is lost).

// ringMinCap keeps degenerate capacities usable; capacities round up to
// the next power of two so index masking replaces modulo.
const ringMinCap = 8

func ceilPow2(n int) int {
	c := ringMinCap
	for c < n {
		c <<= 1
	}
	return c
}

// SPSCRing is a bounded single-producer single-consumer queue. Exactly
// one goroutine may enqueue and exactly one may dequeue at any moment
// (serialization through a mutex counts); under that contract every
// operation is wait-free. The zero value is not usable; call NewSPSCRing.
type SPSCRing[T any] struct {
	mask uint64
	buf  []T
	// parked is the wake channel of a consumer that is blocked, or about
	// to block, on the empty ring; nil otherwise. It shares the read-mostly
	// line: the producer loads it on every publish, the consumer writes it
	// only when it parks.
	parked atomic.Pointer[chan<- struct{}]
	_      [24]byte // keep head off this line

	head atomic.Uint64 // next slot to read; owned by the consumer
	_    [56]byte

	tail atomic.Uint64 // next slot to write; owned by the producer
	_    [56]byte

	// cachedHead is the producer's last observed head: the producer
	// re-reads the shared head only when the ring looks full, so the
	// common-case enqueue touches no consumer-written line.
	cachedHead uint64
	_          [56]byte

	// cachedTail is the consumer's mirror of tail. wakeCell boxes the
	// channel last passed to ArmWake so that re-arming allocates nothing.
	cachedTail uint64
	wakeCell   *chan<- struct{}
	_          [48]byte
}

// NewSPSCRing returns an SPSC ring holding at least capacity elements
// (rounded up to a power of two).
func NewSPSCRing[T any](capacity int) *SPSCRing[T] {
	c := ceilPow2(capacity)
	return &SPSCRing[T]{mask: uint64(c - 1), buf: make([]T, c)}
}

// Cap returns the ring capacity.
func (r *SPSCRing[T]) Cap() int { return len(r.buf) }

// Len reports the number of queued elements. It is exact only for the
// producer or consumer; other observers get a point-in-time estimate.
func (r *SPSCRing[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Enqueue appends v and reports whether there was room (false = full,
// caller keeps ownership of v). Producer side only.
func (r *SPSCRing[T]) Enqueue(v T) bool {
	t := r.tail.Load()
	if t-r.cachedHead > r.mask {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead > r.mask {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.signal()
	return true
}

// EnqueueBatch appends as many elements of ps as fit and returns how
// many were taken; ownership of the remainder stays with the caller.
// One atomic publish covers the whole batch.
func (r *SPSCRing[T]) EnqueueBatch(ps []T) int {
	t := r.tail.Load()
	free := r.mask + 1 - (t - r.cachedHead)
	if free < uint64(len(ps)) {
		r.cachedHead = r.head.Load()
		free = r.mask + 1 - (t - r.cachedHead)
	}
	n := uint64(len(ps))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = ps[i]
	}
	if n > 0 {
		r.tail.Store(t + n)
		r.signal()
	}
	return int(n)
}

// ArmWake is the consumer's step before blocking on an empty ring: it asks
// for one non-blocking send on wake after the producer's next publish and
// reports whether the ring is still empty. On false nothing stays armed and
// the consumer should dequeue instead of blocking. Consumer side only.
//
// No wake-up is lost: the consumer stores parked and then loads tail, the
// producer stores tail and then loads parked, and the atomics are
// sequentially consistent, so either the consumer sees the publish here or
// the producer sees the armed channel in signal. wake needs a buffer of at
// least one; a signal that finds it full is dropped, the pending token
// wakes the consumer just as well.
func (r *SPSCRing[T]) ArmWake(wake chan<- struct{}) bool {
	if r.wakeCell == nil || *r.wakeCell != wake {
		w := wake
		r.wakeCell = &w
	}
	r.parked.Store(r.wakeCell)
	if r.tail.Load() != r.head.Load() {
		r.parked.Store(nil)
		return false
	}
	return true
}

// signal wakes a parked consumer after a publish: one atomic load when
// nobody is parked, at most one send per park otherwise.
func (r *SPSCRing[T]) signal() {
	if w := r.parked.Load(); w != nil && r.parked.CompareAndSwap(w, nil) {
		select {
		case *w <- struct{}{}:
		default:
		}
	}
}

// Dequeue removes and returns the oldest element. Consumer side only.
func (r *SPSCRing[T]) Dequeue() (v T, ok bool) {
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return v, false
		}
	}
	var zero T
	v = r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // release the reference for GC
	r.head.Store(h + 1)
	return v, true
}

// DequeueBatch appends up to max elements to buf and returns the
// extended slice. One atomic publish covers the whole batch.
func (r *SPSCRing[T]) DequeueBatch(buf []T, max int) []T {
	h := r.head.Load()
	avail := r.cachedTail - h
	if avail < uint64(max) {
		r.cachedTail = r.tail.Load()
		avail = r.cachedTail - h
	}
	n := uint64(max)
	if n > avail {
		n = avail
	}
	if n == 0 {
		return buf
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		buf = append(buf, r.buf[(h+i)&r.mask])
		r.buf[(h+i)&r.mask] = zero
	}
	r.head.Store(h + n)
	return buf
}
