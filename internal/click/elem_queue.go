package click

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Queueing and shaping elements.

func init() {
	RegisterElement("Queue", func() Element { return &Queue{} })
	RegisterElement("Unqueue", func() Element { return &Unqueue{} })
	RegisterElement("RatedUnqueue", func() Element { return &RatedUnqueue{} })
	RegisterElement("BandwidthShaper", func() Element { return &BandwidthShaper{} })
}

// Queue stores packets in FIFO order: push input, pull output. Packets
// pushed into a full queue are dropped (tail drop).
//
// Queues have two storage modes. The default is the mutex-guarded slice
// ring: every access runs under the element lock acquired by the caller.
// Under the Fused driver, the fuse compiler switches eligible queues to
// a lock-free SPSC ring: the producer enqueues and the single consumer
// dequeues with atomic ring operations only, and counters are atomics so
// handler reads stay race-free. Ring capacity rounds up to a power of
// two, and the capacity write handler is rejected while a ring is active
// (resizing a lock-free ring in place is not).
//
// Configuration: Queue([CAPACITY]). Handlers: length, capacity (rw),
// drops, highwater (r), reset_counts (w).
type Queue struct {
	Base
	ring      []*Packet
	head, n   int
	capacity  int
	drops     atomic.Uint64
	highwater atomic.Int64

	// lf, when non-nil, replaces the slice ring (fused fast path).
	// fusedThrough marks queues a pipeline fused straight through: bursts
	// run to the downstream sink in the pipeline goroutine and the queue
	// itself never stores a packet, so its capacity is inert and resize
	// writes are rejected.
	lf           *SPSCRing[*Packet]
	fusedThrough bool
}

// Class implements Element.
func (*Queue) Class() string { return "Queue" }

// Spec implements Element.
func (*Queue) Spec() PortSpec {
	return PortSpec{NIn: 1, NOut: 1, In: []Processing{Push}, Out: []Processing{Pull}}
}

// Configure implements Element.
func (q *Queue) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	cap_, err := ca.PosInt(0, 1000)
	if err != nil {
		return err
	}
	if cap_ <= 0 {
		return fmt.Errorf("capacity must be positive")
	}
	q.capacity = cap_
	q.ring = make([]*Packet, cap_)
	return nil
}

// enableRing switches the queue from the mutex-guarded slice ring to a
// lock-free ring, migrating any already-queued packets. Called by the
// fuse compiler before the router starts, never while traffic flows.
func (q *Queue) enableRing() {
	r := NewSPSCRing[*Packet](q.capacity)
	for q.n > 0 {
		r.Enqueue(q.Pull(0))
	}
	q.ring = nil
	q.lf = r
}

// Len reports the number of queued packets.
func (q *Queue) Len() int {
	if q.lf != nil {
		return q.lf.Len()
	}
	return q.n
}

// noteDepth updates the high-water mark. The read-max-store is racy in
// ring mode, but the mark is a statistic: a lost update costs at most a
// slightly stale watermark, never a wrong packet.
func (q *Queue) noteDepth(n int64) {
	if n > q.highwater.Load() {
		q.highwater.Store(n)
	}
}

// Push implements Element.
func (q *Queue) Push(port int, p *Packet) {
	if q.lf != nil {
		if !q.lf.Enqueue(p) {
			q.drops.Add(1)
			p.Kill()
			return
		}
		q.noteDepth(int64(q.lf.Len()))
		return
	}
	if q.n == q.capacity {
		q.drops.Add(1)
		p.Kill()
		return
	}
	q.ring[(q.head+q.n)%q.capacity] = p
	q.n++
	q.noteDepth(int64(q.n))
}

// PushBatch implements Element: the whole burst is enqueued under the one
// lock acquisition the caller already holds (or, in ring mode, with one
// atomic publish for the whole burst).
func (q *Queue) PushBatch(port int, ps []*Packet) {
	if q.lf != nil {
		taken := q.lf.EnqueueBatch(ps)
		if taken < len(ps) {
			q.drops.Add(uint64(len(ps) - taken))
			for _, p := range ps[taken:] {
				p.Kill()
			}
		}
		q.noteDepth(int64(q.lf.Len()))
		return
	}
	for _, p := range ps {
		q.Push(port, p)
	}
}

// Pull implements Element.
func (q *Queue) Pull(port int) *Packet {
	if q.lf != nil {
		p, _ := q.lf.Dequeue()
		return p
	}
	if q.n == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % q.capacity
	q.n--
	return p
}

// PullBatch implements batchPuller: dequeue up to max packets in one call.
func (q *Queue) PullBatch(port, max int, buf []*Packet) []*Packet {
	if q.lf != nil {
		return q.lf.DequeueBatch(buf, max-len(buf))
	}
	for len(buf) < max && q.n > 0 {
		buf = append(buf, q.Pull(port))
	}
	return buf
}

// UnlockedPullBatch implements unlockedBatchPuller: in ring mode the
// single consumer may dequeue without the element lock.
func (q *Queue) UnlockedPullBatch(port, max int, buf []*Packet) []*Packet {
	return q.lf.DequeueBatch(buf, max-len(buf))
}

// pullLockFree implements unlockedBatchPuller.
func (q *Queue) pullLockFree() bool { return q.lf != nil }

// Handlers implements HandlerProvider.
func (q *Queue) Handlers() []Handler {
	return []Handler{
		{Name: "length", Read: func() string { return strconv.Itoa(q.Len()) }},
		{Name: "capacity", Read: func() string { return strconv.Itoa(q.capacity) },
			Write: func(v string) error {
				c, err := strconv.Atoi(v)
				if err != nil || c <= 0 {
					return fmt.Errorf("bad capacity %q", v)
				}
				if q.lf != nil || q.fusedThrough {
					return fmt.Errorf("cannot resize a lock-free queue while the fused driver is running")
				}
				// Rebuild ring preserving the oldest contents that fit; the
				// rest are tail drops like any push into a full queue.
				nr := make([]*Packet, c)
				keep := min(q.n, c)
				for i := 0; i < q.n; i++ {
					p := q.ring[(q.head+i)%q.capacity]
					if i < keep {
						nr[i] = p
					} else {
						q.drops.Add(1)
						p.Kill()
					}
				}
				q.ring, q.head, q.n, q.capacity = nr, 0, keep, c
				return nil
			}},
		{Name: "drops", Read: func() string { return strconv.FormatUint(q.drops.Load(), 10) }},
		{Name: "highwater", Read: func() string { return strconv.FormatInt(q.highwater.Load(), 10) }},
		{Name: "reset_counts", Write: func(string) error {
			q.drops.Store(0)
			q.highwater.Store(int64(q.Len()))
			return nil
		}},
	}
}

// Unqueue actively pulls packets from its input and pushes them downstream,
// converting a pull path back to a push path.
//
// Configuration: Unqueue([BURST n]).
type Unqueue struct {
	Base
	burst int
	count atomic.Uint64
	batch []*Packet // scratch for batched pull→push handoff
}

// Class implements Element.
func (*Unqueue) Class() string { return "Unqueue" }

// Spec implements Element.
func (*Unqueue) Spec() PortSpec {
	return PortSpec{NIn: 1, NOut: 1, In: []Processing{Pull}, Out: []Processing{Push}}
}

// Configure implements Element.
func (u *Unqueue) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	var err error
	if u.burst, err = ca.KeyInt("BURST", 32); err != nil {
		return err
	}
	if b, err2 := ca.PosInt(0, u.burst); err2 == nil {
		u.burst = b
	}
	if u.burst <= 0 {
		return fmt.Errorf("BURST must be positive")
	}
	return nil
}

// RunTask implements Tasker: one batched pull from upstream, one batched
// push downstream — two lock acquisitions per burst instead of two per
// packet.
func (u *Unqueue) RunTask() bool {
	u.batch = u.PullInBatch(0, u.burst, u.batch[:0])
	if len(u.batch) == 0 {
		return false
	}
	u.count.Add(uint64(len(u.batch)))
	u.PushOutBatch(0, u.batch)
	return true
}

// Handlers implements HandlerProvider.
func (u *Unqueue) Handlers() []Handler {
	return []Handler{{Name: "count", Read: func() string { return strconv.FormatUint(u.count.Load(), 10) }}}
}

// RatedUnqueue is Unqueue limited to RATE packets per second.
//
// Configuration: RatedUnqueue(RATE). Handlers: rate (rw), count (r).
type RatedUnqueue struct {
	Base
	ratePPS float64
	tokens  float64
	last    time.Time
	count   uint64
}

// Class implements Element.
func (*RatedUnqueue) Class() string { return "RatedUnqueue" }

// Spec implements Element.
func (*RatedUnqueue) Spec() PortSpec {
	return PortSpec{NIn: 1, NOut: 1, In: []Processing{Pull}, Out: []Processing{Push}}
}

// Configure implements Element.
func (u *RatedUnqueue) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	rate := ca.Key("RATE", ca.Pos(0, "10"))
	f, err := strconv.ParseFloat(rate, 64)
	if err != nil || f <= 0 {
		return fmt.Errorf("bad RATE %q", rate)
	}
	u.ratePPS = f
	return nil
}

// Init implements Initializer.
func (u *RatedUnqueue) Init() error {
	u.last = time.Now()
	return nil
}

// RunTask implements Tasker.
func (u *RatedUnqueue) RunTask() bool {
	now := time.Now()
	u.tokens += now.Sub(u.last).Seconds() * u.ratePPS
	u.last = now
	if max := u.ratePPS / 10; u.tokens > max && max >= 1 {
		u.tokens = max
	}
	worked := false
	for u.tokens >= 1 {
		p := u.PullIn(0)
		if p == nil {
			return worked
		}
		u.tokens--
		u.count++
		u.PushOut(0, p)
		worked = true
	}
	return worked
}

// NextDeadline implements Deadliner. With a whole token in the bucket the
// element waits for its upstream Queue, not for time.
func (u *RatedUnqueue) NextDeadline() (time.Time, bool) {
	if u.tokens >= 1 {
		return time.Time{}, false
	}
	return refillAt(u.last, u.tokens, u.ratePPS), true
}

// Handlers implements HandlerProvider.
func (u *RatedUnqueue) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(u.count, 10) }},
		{Name: "rate", Read: func() string { return strconv.FormatFloat(u.ratePPS, 'f', -1, 64) },
			Write: func(v string) error {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f <= 0 {
					return fmt.Errorf("bad rate %q", v)
				}
				u.ratePPS = f
				return nil
			}},
	}
}

// BandwidthShaper sits on a pull path and releases at most RATE bytes per
// second: a byte-granularity token bucket, Click's BandwidthShaper.
//
// Configuration: BandwidthShaper(RATE bytes/s).
type BandwidthShaper struct {
	Base
	rateBps float64 // bytes per second
	tokens  float64
	last    time.Time
	count   uint64
	bytes   uint64
}

// Class implements Element.
func (*BandwidthShaper) Class() string { return "BandwidthShaper" }

// Spec implements Element.
func (*BandwidthShaper) Spec() PortSpec { return pullPorts(1, 1) }

// Configure implements Element.
func (s *BandwidthShaper) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	rate := ca.Key("RATE", ca.Pos(0, "125000"))
	f, err := strconv.ParseFloat(rate, 64)
	if err != nil || f <= 0 {
		return fmt.Errorf("bad RATE %q", rate)
	}
	s.rateBps = f
	return nil
}

// Init implements Initializer.
func (s *BandwidthShaper) Init() error {
	s.last = time.Now()
	s.tokens = 1500 // allow the first MTU immediately
	return nil
}

// Pull implements Element.
func (s *BandwidthShaper) Pull(port int) *Packet {
	now := time.Now()
	s.tokens += now.Sub(s.last).Seconds() * s.rateBps
	s.last = now
	if max := s.rateBps / 10; s.tokens > max && max >= 1500 {
		s.tokens = max
	}
	if s.tokens < 1 {
		return nil
	}
	p := s.PullIn(0)
	if p == nil {
		return nil
	}
	s.tokens -= float64(p.Len())
	s.count++
	s.bytes += uint64(p.Len())
	return p
}

// NextDeadline implements Deadliner: when the byte bucket is back above
// zero. With tokens to spend the shaper waits for its upstream Queue.
func (s *BandwidthShaper) NextDeadline() (time.Time, bool) {
	if s.tokens >= 1 {
		return time.Time{}, false
	}
	return refillAt(s.last, s.tokens, s.rateBps), true
}

// Handlers implements HandlerProvider.
func (s *BandwidthShaper) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(s.count, 10) }},
		{Name: "byte_count", Read: func() string { return strconv.FormatUint(s.bytes, 10) }},
		{Name: "rate", Read: func() string { return strconv.FormatFloat(s.rateBps, 'f', -1, 64) }},
	}
}
