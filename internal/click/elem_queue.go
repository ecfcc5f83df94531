package click

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Queueing and rate-limiting elements.

func init() {
	RegisterElement("Queue", func() Element { return &Queue{} })
	RegisterElement("RatedUnqueue", func() Element { return &RatedUnqueue{} })
}

// Queue stores packets in FIFO order: push input, pull output. Packets
// pushed into a full queue are dropped (tail drop). Storage is a slice
// ring; every access runs under the element lock acquired by the caller.
//
// Configuration: Queue([CAPACITY]), CAPACITY at most maxQueueCapacity.
// Handlers: length, capacity (rw), drops, highwater (r), reset_counts (w).
type Queue struct {
	Base
	ring      []*Packet
	head, n   int
	capacity  int
	drops     atomic.Uint64
	highwater atomic.Int64
}

// maxQueueCapacity bounds Queue(N) and the capacity write handler. Both
// arrive from outside the program — a NETCONF-delivered config, the
// ControlSocket TCP port — and the ring is allocated up front.
const maxQueueCapacity = 1 << 20

// checkQueueCapacity validates a capacity from a config or a handler write.
func checkQueueCapacity(c int) error {
	if c <= 0 || c > maxQueueCapacity {
		return fmt.Errorf("capacity %d out of range 1..%d", c, maxQueueCapacity)
	}
	return nil
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
	if err := checkQueueCapacity(cap_); err != nil {
		return err
	}
	q.capacity = cap_
	q.ring = make([]*Packet, cap_)
	return nil
}

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Push implements Element.
func (q *Queue) Push(port int, p *Packet) {
	if q.n == q.capacity {
		q.drops.Add(1)
		p.Kill()
		return
	}
	q.ring[(q.head+q.n)%q.capacity] = p
	q.n++
	if n := int64(q.n); n > q.highwater.Load() {
		q.highwater.Store(n)
	}
}

// PushBatch implements Element: the whole burst is enqueued under the one
// lock acquisition the caller already holds.
func (q *Queue) PushBatch(port int, ps []*Packet) {
	for _, p := range ps {
		q.Push(port, p)
	}
}

// Pull implements Element.
func (q *Queue) Pull(port int) *Packet {
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
	for len(buf) < max && q.n > 0 {
		buf = append(buf, q.Pull(port))
	}
	return buf
}

// Handlers implements HandlerProvider.
func (q *Queue) Handlers() []Handler {
	return []Handler{
		{Name: "length", Read: func() string { return strconv.Itoa(q.Len()) }},
		{Name: "capacity", Read: func() string { return strconv.Itoa(q.capacity) },
			Write: func(v string) error {
				c, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("bad capacity %q", v)
				}
				if err := checkQueueCapacity(c); err != nil {
					return err
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

// RatedUnqueue actively pulls packets from its input and pushes them
// downstream, converting a pull path back to a push path, at most RATE
// packets per second (a token bucket).
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
	f, err := parseRate(rate)
	if err != nil {
		return fmt.Errorf("bad RATE %q", rate)
	}
	u.ratePPS = f
	return nil
}

// parseRate reads a packet rate: a finite number above zero.
func parseRate(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f > 0) || math.IsInf(f, 1) {
		return 0, fmt.Errorf("rate %q is not a positive finite number", s)
	}
	return f, nil
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

// NextDeadline implements Deadliner: the instant the bucket, refilling
// since last, holds one whole token. With a whole token in the bucket the
// element waits for its upstream Queue, not for time.
func (u *RatedUnqueue) NextDeadline() (time.Time, bool) {
	if u.tokens >= 1 {
		return time.Time{}, false
	}
	return u.last.Add(time.Duration((1 - u.tokens) / u.ratePPS * float64(time.Second))), true
}

// Handlers implements HandlerProvider.
func (u *RatedUnqueue) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(u.count, 10) }},
		{Name: "rate", Read: func() string { return strconv.FormatFloat(u.ratePPS, 'f', -1, 64) },
			Write: func(v string) error {
				f, err := parseRate(v)
				if err != nil {
					return err
				}
				u.ratePPS = f
				return nil
			}},
	}
}
