package click

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Source and sink elements.

func init() {
	RegisterElement("InfiniteSource", func() Element { return &InfiniteSource{} })
	RegisterElement("RatedSource", func() Element { return &RatedSource{} })
	RegisterElement("TimedSource", func() Element { return &TimedSource{} })
	RegisterElement("Idle", func() Element { return &Idle{} })
	RegisterElement("Discard", func() Element { return &Discard{} })
	RegisterElement("FromDevice", func() Element { return &FromDevice{} })
	RegisterElement("ToDevice", func() Element { return &ToDevice{} })
}

// InfiniteSource pushes packets as fast as the scheduler allows.
//
// Configuration: InfiniteSource([DATA,] LENGTH n, LIMIT n, BURST n).
// LIMIT -1 (default) means unlimited. Handlers: count (r), reset (w),
// active (rw).
type InfiniteSource struct {
	Base
	data   []byte
	limit  int
	burst  int
	count  atomic.Uint64
	active atomic.Bool
}

// Class implements Element.
func (*InfiniteSource) Class() string { return "InfiniteSource" }

// Spec implements Element.
func (*InfiniteSource) Spec() PortSpec { return pushPorts(0, 1) }

// Configure implements Element.
func (s *InfiniteSource) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	var err error
	if s.data, err = sourceData(ca); err != nil {
		return err
	}
	if s.limit, err = ca.KeyInt("LIMIT", -1); err != nil {
		return err
	}
	if s.burst, err = ca.KeyInt("BURST", 32); err != nil {
		return err
	}
	if s.burst <= 0 {
		return fmt.Errorf("BURST must be positive")
	}
	s.active.Store(true)
	return nil
}

// maxSourceLength bounds a source's LENGTH: no Ethernet frame is longer,
// and the value arrives in a NETCONF-delivered config.
const maxSourceLength = 1 << 16

// sourceData is the packet a source emits: the DATA argument when given,
// LENGTH zero bytes (default 64) otherwise.
func sourceData(ca *ConfArgs) ([]byte, error) {
	length, err := ca.KeyInt("LENGTH", 64)
	if err != nil {
		return nil, err
	}
	if length < 0 || length > maxSourceLength {
		return nil, fmt.Errorf("LENGTH %d out of range 0..%d", length, maxSourceLength)
	}
	if d := ca.Pos(0, ""); d != "" {
		return []byte(Unquote(d)), nil
	}
	return make([]byte, length), nil
}

// pending reports how many packets the source may emit right now.
func (s *InfiniteSource) pending() int {
	if !s.active.Load() {
		return 0
	}
	n := s.burst
	if s.limit >= 0 {
		if remaining := s.limit - int(s.count.Load()); remaining < n {
			n = remaining
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// RunTask implements Tasker.
func (s *InfiniteSource) RunTask() bool {
	n := s.pending()
	if n <= 0 {
		return false
	}
	for i := 0; i < n; i++ {
		s.PushOut(0, NewPacket(s.data))
		s.count.Add(1)
	}
	return true
}

// Handlers implements HandlerProvider.
func (s *InfiniteSource) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(s.count.Load(), 10) }},
		{Name: "reset", Write: func(string) error { s.count.Store(0); return nil }},
		{Name: "active", Read: func() string { return strconv.FormatBool(s.active.Load()) },
			Write: func(v string) error {
				b, err := strconv.ParseBool(v)
				if err != nil {
					return err
				}
				s.active.Store(b)
				return nil
			}},
	}
}

// RatedSource pushes packets at a fixed rate using a token bucket.
//
// Configuration: RatedSource([DATA,] RATE pps, LIMIT n, LENGTH n).
// Handlers: count (r), rate (rw), reset (w).
type RatedSource struct {
	Base
	data    []byte
	ratePPS float64
	limit   int
	count   uint64
	tokens  float64
	last    time.Time
}

// Class implements Element.
func (*RatedSource) Class() string { return "RatedSource" }

// Spec implements Element.
func (*RatedSource) Spec() PortSpec { return pushPorts(0, 1) }

// Configure implements Element.
func (s *RatedSource) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	var err error
	if s.ratePPS, err = ca.KeyFloat("RATE", 10); err != nil {
		return err
	}
	if s.ratePPS <= 0 {
		return fmt.Errorf("RATE must be positive")
	}
	if s.limit, err = ca.KeyInt("LIMIT", -1); err != nil {
		return err
	}
	s.data, err = sourceData(ca)
	return err
}

// Init implements Initializer.
func (s *RatedSource) Init() error {
	s.last = time.Now()
	return nil
}

// RunTask implements Tasker.
func (s *RatedSource) RunTask() bool {
	if s.limit >= 0 && int(s.count) >= s.limit {
		return false
	}
	now := time.Now()
	s.tokens += now.Sub(s.last).Seconds() * s.ratePPS
	s.last = now
	if max := s.ratePPS / 10; s.tokens > max && max >= 1 { // ≤100ms of burst
		s.tokens = max
	}
	sent := false
	for s.tokens >= 1 {
		if s.limit >= 0 && int(s.count) >= s.limit {
			break
		}
		s.tokens--
		s.PushOut(0, NewPacket(s.data))
		s.count++
		sent = true
	}
	return sent
}

// NextDeadline implements Deadliner: the instant the bucket holds the next
// whole token, unless LIMIT is reached (then only a reset restarts it).
func (s *RatedSource) NextDeadline() (time.Time, bool) {
	if s.limit >= 0 && int(s.count) >= s.limit {
		return time.Time{}, false
	}
	return refillAt(s.last, s.tokens, s.ratePPS), true
}

// Handlers implements HandlerProvider.
func (s *RatedSource) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(s.count, 10) }},
		{Name: "reset", Write: func(string) error { s.count = 0; return nil }},
		{Name: "rate", Read: func() string { return strconv.FormatFloat(s.ratePPS, 'f', -1, 64) },
			Write: func(v string) error {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f <= 0 {
					return fmt.Errorf("bad rate %q", v)
				}
				s.ratePPS = f
				return nil
			}},
	}
}

// TimedSource pushes one packet every INTERVAL.
//
// Configuration: TimedSource(INTERVAL duration[, DATA]). Interval accepts
// Go duration syntax ("10ms") or a float in seconds (Click style).
type TimedSource struct {
	Base
	data     []byte
	interval time.Duration
	next     time.Time
	count    uint64
}

// Class implements Element.
func (*TimedSource) Class() string { return "TimedSource" }

// Spec implements Element.
func (*TimedSource) Spec() PortSpec { return pushPorts(0, 1) }

// Configure implements Element.
func (s *TimedSource) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	ivs := ca.Key("INTERVAL", ca.Pos(0, "1s"))
	d, err := parseDurationOrSeconds(ivs)
	if err != nil {
		return err
	}
	s.interval = d
	if raw := ca.Pos(1, ""); raw != "" {
		s.data = []byte(Unquote(raw))
	} else {
		s.data = make([]byte, 64)
	}
	return nil
}

func parseDurationOrSeconds(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return 0, fmt.Errorf("interval must be positive")
		}
		return d, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("bad interval %q", s)
	}
	return time.Duration(f * float64(time.Second)), nil
}

// Init implements Initializer.
func (s *TimedSource) Init() error {
	s.next = time.Now().Add(s.interval)
	return nil
}

// RunTask implements Tasker.
func (s *TimedSource) RunTask() bool {
	if time.Now().Before(s.next) {
		return false
	}
	s.next = s.next.Add(s.interval)
	s.PushOut(0, NewPacket(s.data))
	s.count++
	return true
}

// NextDeadline implements Deadliner.
func (s *TimedSource) NextDeadline() (time.Time, bool) { return s.next, true }

// Handlers implements HandlerProvider.
func (s *TimedSource) Handlers() []Handler {
	return []Handler{{Name: "count", Read: func() string { return strconv.FormatUint(s.count, 10) }}}
}

// Idle is a pull source that never produces a packet; use it to plug pull
// inputs.
type Idle struct{ Base }

// Class implements Element.
func (*Idle) Class() string { return "Idle" }

// Spec implements Element.
func (*Idle) Spec() PortSpec { return pullPorts(0, 1) }

// Pull implements Element.
func (*Idle) Pull(int) *Packet { return nil }

// Discard swallows every packet pushed into it. Handler: count (r).
type Discard struct {
	Base
	count atomic.Uint64
}

// Class implements Element.
func (*Discard) Class() string { return "Discard" }

// Spec implements Element.
func (*Discard) Spec() PortSpec { return pushPorts(1, 0) }

// Push implements Element.
func (d *Discard) Push(port int, p *Packet) {
	d.count.Add(1)
	p.Kill()
}

// PushBatch implements Element.
func (d *Discard) PushBatch(port int, ps []*Packet) {
	d.count.Add(uint64(len(ps)))
	for _, p := range ps {
		p.Kill()
	}
}

// Handlers implements HandlerProvider.
func (d *Discard) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(d.count.Load(), 10) }},
		{Name: "reset", Write: func(string) error { d.count.Store(0); return nil }},
	}
}

// FromDevice injects frames arriving on a Device into the graph.
//
// Configuration: FromDevice(DEVNAME[, BURST n]). Handlers: count (r).
type FromDevice struct {
	Base
	devName string
	dev     Device
	burst   int
	count   atomic.Uint64
	batch   []*Packet // scratch for batched ingest
	// parked is the frame the idle driver received off dev.Recv() while it
	// was blocked (see Router.park). The next ingest emits it first, so
	// per-device order is exact.
	parked []byte
}

// Class implements Element.
func (*FromDevice) Class() string { return "FromDevice" }

// Spec implements Element.
func (*FromDevice) Spec() PortSpec { return pushPorts(0, 1) }

// Configure implements Element.
func (f *FromDevice) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	f.devName = ca.Pos(0, "")
	if f.devName == "" {
		return fmt.Errorf("FromDevice requires a device name")
	}
	var err error
	if f.burst, err = ca.KeyInt("BURST", 32); err != nil {
		return err
	}
	return nil
}

// Init implements Initializer.
func (f *FromDevice) Init() error {
	dev, ok := f.Router().Device(f.devName)
	if !ok {
		return fmt.Errorf("device %q not attached to router", f.devName)
	}
	f.dev = dev
	if dev.Recv() == nil {
		return fmt.Errorf("device %q has no receive channel: an idle driver could not wake on it", f.devName)
	}
	return nil
}

// stash hands over the frame an idle driver received on this device's
// channel while it was blocked.
func (f *FromDevice) stash(frame []byte) {
	f.mu.Lock()
	f.parked = frame
	f.mu.Unlock()
}

// takeParked appends the stashed frame, if any, as a copied packet.
func (f *FromDevice) takeParked(buf []*Packet) []*Packet {
	if f.parked == nil {
		return buf
	}
	buf = append(buf, NewPacket(f.parked))
	f.parked = nil
	return buf
}

// RunTask implements Tasker: drain up to a burst of frames off the device,
// then hand the whole batch downstream under one lock acquisition. Frames
// are copied into pooled packets so downstream elements get headroom and
// the device may reuse its buffers.
func (f *FromDevice) RunTask() bool {
	f.batch = f.takeParked(f.batch[:0])
drain:
	for len(f.batch) < f.burst {
		select {
		case frame := <-f.dev.Recv():
			f.batch = append(f.batch, NewPacket(frame))
		default:
			break drain
		}
	}
	if len(f.batch) == 0 {
		return false
	}
	f.count.Add(uint64(len(f.batch)))
	f.PushOutBatch(0, f.batch)
	return true
}

// Handlers implements HandlerProvider.
func (f *FromDevice) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(f.count.Load(), 10) }},
		{Name: "device", Read: func() string { return f.devName }},
	}
}

// ToDevice transmits frames out of the graph via a Device. Its input is
// agnostic: pushed frames go out immediately; when fed by a pull path
// (Queue) it schedules a task that pulls.
//
// Configuration: ToDevice(DEVNAME[, BURST n]). Handlers: count, drops (r).
type ToDevice struct {
	Base
	devName  string
	dev      Device
	burst    int
	pullMode bool
	count    atomic.Uint64
	drops    atomic.Uint64
	batch    []*Packet // scratch for batched drain
}

// Class implements Element.
func (*ToDevice) Class() string { return "ToDevice" }

// Spec implements Element.
func (*ToDevice) Spec() PortSpec {
	return PortSpec{NIn: 1, NOut: 0, In: []Processing{Agnostic}}
}

// Configure implements Element.
func (t *ToDevice) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	t.devName = ca.Pos(0, "")
	if t.devName == "" {
		return fmt.Errorf("ToDevice requires a device name")
	}
	var err error
	if t.burst, err = ca.KeyInt("BURST", 32); err != nil {
		return err
	}
	return nil
}

// Init implements Initializer.
func (t *ToDevice) Init() error {
	dev, ok := t.Router().Device(t.devName)
	if !ok {
		return fmt.Errorf("device %q not attached to router", t.devName)
	}
	t.dev = dev
	// Pull mode when processing negotiation resolved our input to pull
	// (a Queue somewhere upstream, possibly through agnostic elements).
	t.pullMode = t.ResolvedIn(0) == Pull
	return nil
}

// Push implements Element.
func (t *ToDevice) Push(port int, p *Packet) { t.send(p) }

// PushBatch implements Element.
func (t *ToDevice) PushBatch(port int, ps []*Packet) {
	for _, p := range ps {
		t.send(p)
	}
}

// RunTask implements Tasker: drain a burst from the upstream Queue under
// one lock acquisition, then transmit.
func (t *ToDevice) RunTask() bool {
	if !t.pullMode {
		return false
	}
	t.batch = t.PullInBatch(0, t.burst, t.batch[:0])
	if len(t.batch) == 0 {
		return false
	}
	t.PushBatch(0, t.batch)
	return true
}

// send transmits and reclaims the packet. On success the device owns the
// frame bytes, so only the struct is recycled (Detach); on error the
// device retained nothing and the whole packet returns to the pool.
func (t *ToDevice) send(p *Packet) {
	if err := t.dev.Send(p.Data()); err != nil {
		t.drops.Add(1)
		p.Kill()
		return
	}
	t.count.Add(1)
	p.Detach()
	p.Kill()
}

// Handlers implements HandlerProvider.
func (t *ToDevice) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(t.count.Load(), 10) }},
		{Name: "drops", Read: func() string { return strconv.FormatUint(t.drops.Load(), 10) }},
		{Name: "device", Read: func() string { return t.devName }},
	}
}
