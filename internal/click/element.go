package click

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDeviceFull reports a dropped frame on a full output device.
var ErrDeviceFull = errors.New("click: device buffer full")

// Processing declares how a port moves packets, Click-style.
type Processing int

// Port processing disciplines.
const (
	// Agnostic ports adapt to their neighbour: push when pushed to, pull
	// when pulled from.
	Agnostic Processing = iota
	// Push ports have packets actively handed to them.
	Push
	// pull ports have packets requested from them.
	pull
)

// String returns Click's single-letter code (a/h/l).
func (p Processing) String() string {
	switch p {
	case Push:
		return "h"
	case pull:
		return "l"
	}
	return "a"
}

// PortSpec declares an element's port counts and processing. Processing
// slices of length 1 apply to every port of that side (Click's "x/y"
// shorthand).
type PortSpec struct {
	NIn, NOut int
	In, Out   []Processing
}

// Spec helpers for the common cases.
func agnostic(nin, nout int) PortSpec {
	return PortSpec{NIn: nin, NOut: nout, In: []Processing{Agnostic}, Out: []Processing{Agnostic}}
}
func pushPorts(nin, nout int) PortSpec {
	return PortSpec{NIn: nin, NOut: nout, In: []Processing{Push}, Out: []Processing{Push}}
}

func (s PortSpec) in(i int) Processing {
	if len(s.In) == 0 {
		return Agnostic
	}
	if i < len(s.In) {
		return s.In[i]
	}
	return s.In[len(s.In)-1]
}

func (s PortSpec) out(i int) Processing {
	if len(s.Out) == 0 {
		return Agnostic
	}
	if i < len(s.Out) {
		return s.Out[i]
	}
	return s.Out[len(s.Out)-1]
}

// Element is a packet-processing module. Implementations embed Base and
// override the methods they need; Configure receives the comma-separated
// arguments from the configuration string.
type Element interface {
	// Class returns the element class name as used in configurations
	// ("Queue", "Counter", …).
	Class() string
	// Spec declares port counts and processing after Configure ran.
	Spec() PortSpec
	// Configure parses configuration arguments. It runs before wiring.
	Configure(r *Router, args []string) error
	// Push hands a packet to input port. Only called on push inputs.
	Push(port int, p *Packet)
	// Pull requests a packet from output port. Only called on pull
	// outputs. Returns nil when no packet is available.
	Pull(port int) *Packet
	// PushBatch hands several packets to input port in one call so hot
	// paths acquire the element lock once per burst instead of once per
	// packet. The default (Base) implementation loops over Push; elements
	// with cheap batch semantics (Queue, ToDevice) override it.
	PushBatch(port int, ps []*Packet)

	base() *Base
}

// tasker is implemented by elements needing scheduler time (FromDevice,
// RatedUnqueue, ToDevice behind a Queue). RunTask reports whether useful
// work was done: after a round in which no task did any, the driver blocks
// (idle.go) until something can have created work. A task whose work
// appears without a frame or a handler write — because time passed — must
// also implement deadliner: nothing else wakes a parked driver for it.
type tasker interface {
	RunTask() bool
}

// initializer runs after the graph is wired but before the driver starts.
type initializer interface {
	Init() error
}

// closer runs at router shutdown.
type closer interface {
	Close()
}

// Handler is a named read and/or write control hook on an element, the
// Click handler abstraction ("counter.count", "queue.reset", …).
type Handler struct {
	Name  string
	Read  func() string
	Write func(value string) error
}

// handlerProvider lets elements export handlers beyond the built-in
// "class"/"config" pair.
type handlerProvider interface {
	Handlers() []Handler
}

// Base supplies element identity, port wiring and default method
// implementations. Embed it by value.
//
// Concurrency model: every element owns a small mutex. Element code
// (Push/Pull/RunTask/handlers) always runs with its element's mutex
// held — the caller acquires it: PushOut/PullIn lock the neighbour before
// invoking it, the driver locks a task's element around RunTask, and the
// router locks an element around handler reads/writes. Locks
// nest along a push or pull chain in flow order, so loop-free
// configurations (the only kind that terminate at all) cannot deadlock,
// and two tasks traversing overlapping chains serialize only on the
// elements they share. Pull-then-push converters (RatedUnqueue) never hold
// the upstream and downstream locks simultaneously.
type Base struct {
	name   string
	router *Router
	self   Element
	config []string

	// mu serializes all element code for this element. See the Base doc
	// comment; it replaces the old router-global lock.
	mu sync.Mutex

	ins  []inPort
	outs []outPort

	// Resolved processing after the router's agnostic-resolution pass
	// (Click's processing negotiation): never Agnostic once built.
	inProc  []Processing
	outProc []Processing
}

// resolvedIn reports the negotiated processing of input port i (Push or
// Pull). Valid after router construction.
func (b *Base) resolvedIn(i int) Processing {
	if i < len(b.inProc) {
		return b.inProc[i]
	}
	return Push
}

type inPort struct {
	elem Element // upstream element (for pull)
	port int     // upstream output port index
}

type outPort struct {
	elem Element // downstream element (for push)
	port int     // downstream input port index
}

func (b *Base) base() *Base { return b }

// Name returns the element's instance name within its router.
func (b *Base) Name() string { return b.name }

// configString returns the raw configuration arguments re-joined.
func (b *Base) configString() string {
	s := ""
	for i, a := range b.config {
		if i > 0 {
			s += ", "
		}
		s += a
	}
	return s
}

// Configure is the default no-argument configuration.
func (b *Base) Configure(r *Router, args []string) error {
	if len(args) > 0 && args[0] != "" {
		return fmt.Errorf("takes no configuration arguments")
	}
	return nil
}

// Push is the default push handler: apply the element's simple action if it
// has one and forward to output 0.
func (b *Base) Push(port int, p *Packet) {
	if sa, ok := b.self.(simpleActor); ok {
		if p = sa.SimpleAction(p); p == nil {
			return
		}
	}
	b.PushOut(0, p)
}

// Pull is the default pull handler: pull input 0 and apply the simple
// action.
func (b *Base) Pull(port int) *Packet {
	p := b.pullIn(0)
	if p == nil {
		return nil
	}
	if sa, ok := b.self.(simpleActor); ok {
		p = sa.SimpleAction(p)
	}
	return p
}

// simpleActor is Click's SimpleElement: one input, one output, a pure
// per-packet transform usable on both push and pull paths. Return nil to
// drop the packet.
type simpleActor interface {
	SimpleAction(p *Packet) *Packet
}

// PushBatch is the default batch handler. SimpleAction elements keep the
// burst intact (transform in place, compact drops, one locked handoff
// downstream); everything else falls back to per-packet Push on the
// overriding element.
func (b *Base) PushBatch(port int, ps []*Packet) {
	if sa, ok := b.self.(simpleActor); ok {
		kept := ps[:0]
		for _, p := range ps {
			if q := sa.SimpleAction(p); q != nil {
				kept = append(kept, q)
			}
		}
		b.pushOutBatch(0, kept)
		return
	}
	for _, p := range ps {
		b.self.Push(port, p)
	}
}

// PushOut sends p to whatever is connected to output port i. Unconnected
// ports drop (the router validates connectedness at build time, so this is
// defensive only). The downstream element's lock is held for the duration
// of its Push.
func (b *Base) PushOut(i int, p *Packet) {
	if i >= len(b.outs) || b.outs[i].elem == nil {
		p.Kill()
		return
	}
	o := b.outs[i]
	tb := o.elem.base()
	tb.mu.Lock()
	o.elem.Push(o.port, p)
	tb.mu.Unlock()
}

// pushOutBatch sends a burst to output port i under a single acquisition
// of the downstream element's lock. FromDevice ingest and SimpleAction
// bursts use it to amortize per-element locking.
func (b *Base) pushOutBatch(i int, ps []*Packet) {
	if len(ps) == 0 {
		return
	}
	if i >= len(b.outs) || b.outs[i].elem == nil {
		for _, p := range ps {
			p.Kill()
		}
		return
	}
	o := b.outs[i]
	tb := o.elem.base()
	tb.mu.Lock()
	o.elem.PushBatch(o.port, ps)
	tb.mu.Unlock()
}

// pullIn requests a packet from whatever feeds input port i. The upstream
// element's lock is held for the duration of its Pull.
func (b *Base) pullIn(i int) *Packet {
	if i >= len(b.ins) || b.ins[i].elem == nil {
		return nil
	}
	in := b.ins[i]
	sb := in.elem.base()
	sb.mu.Lock()
	p := in.elem.Pull(in.port)
	sb.mu.Unlock()
	return p
}

// batchPuller is implemented by pull outputs that can hand over a burst
// under one lock acquisition (Queue). PullBatch appends up to max packets
// to buf and returns the extended slice.
type batchPuller interface {
	PullBatch(port, max int, buf []*Packet) []*Packet
}

// pullInBatch pulls up to max packets from input port i into buf (reused
// across calls by the caller), acquiring the upstream lock once.
func (b *Base) pullInBatch(i, max int, buf []*Packet) []*Packet {
	if i >= len(b.ins) || b.ins[i].elem == nil {
		return buf
	}
	in := b.ins[i]
	sb := in.elem.base()
	sb.mu.Lock()
	if bp, ok := in.elem.(batchPuller); ok {
		buf = bp.PullBatch(in.port, max, buf)
	} else {
		for len(buf) < max {
			p := in.elem.Pull(in.port)
			if p == nil {
				break
			}
			buf = append(buf, p)
		}
	}
	sb.mu.Unlock()
	return buf
}
