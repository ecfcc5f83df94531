package click

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Device elements: the graph's boundary to the VNF's ports.

func init() {
	RegisterElement("FromDevice", func() Element { return &fromDevice{} })
	RegisterElement("ToDevice", func() Element { return &toDevice{} })
}

// fromDevice injects frames arriving on a Device into the graph.
//
// Configuration: FromDevice(DEVNAME[, BURST n]). Handlers: count (r).
type fromDevice struct {
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
func (*fromDevice) Class() string { return "FromDevice" }

// Spec implements Element.
func (*fromDevice) Spec() PortSpec { return pushPorts(0, 1) }

// Configure implements Element.
func (f *fromDevice) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	f.devName = ca.Pos(0, "")
	if f.devName == "" {
		return fmt.Errorf("FromDevice requires a device name")
	}
	var err error
	if f.burst, err = ca.KeyInt("BURST", 32); err != nil {
		return err
	}
	if f.burst <= 0 {
		return fmt.Errorf("BURST %d out of range: must be positive", f.burst)
	}
	return nil
}

// Init implements initializer.
func (f *fromDevice) Init() error {
	dev, ok := f.router.device(f.devName)
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
func (f *fromDevice) stash(frame []byte) {
	f.mu.Lock()
	f.parked = frame
	f.mu.Unlock()
}

// takeParked appends the stashed frame, if any, as a packet that owns it.
func (f *fromDevice) takeParked(buf []*Packet) []*Packet {
	if f.parked == nil {
		return buf
	}
	buf = append(buf, NewPacket(f.parked))
	f.parked = nil
	return buf
}

// RunTask implements tasker: drain up to a burst of frames off the device,
// then hand the whole batch downstream under one lock acquisition. Each
// frame becomes a pooled packet that owns it: the device hands it over.
func (f *fromDevice) RunTask() bool {
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
	f.pushOutBatch(0, f.batch)
	return true
}

// Handlers implements handlerProvider.
func (f *fromDevice) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(f.count.Load(), 10) }},
		{Name: "device", Read: func() string { return f.devName }},
	}
}

// toDevice transmits frames out of the graph via a Device. Its input is
// agnostic: pushed frames go out immediately; when fed by a pull path
// (Queue) it schedules a task that pulls up to BURST at a time. A device
// that takes bursts (BurstDevice) gets each pushed or pulled burst, a
// lone packet included, in one SendBurst call; any other Device gets one
// Send per frame, in order.
//
// Configuration: ToDevice(DEVNAME[, BURST n]). Handlers: count, drops (r).
type toDevice struct {
	Base
	devName  string
	dev      Device
	bdev     BurstDevice // dev when it takes bursts, else nil
	burst    int
	pullMode bool
	count    atomic.Uint64
	drops    atomic.Uint64
	batch    []*Packet // scratch for batched drain
	frames   [][]byte  // scratch: the burst handed to bdev
}

// Class implements Element.
func (*toDevice) Class() string { return "ToDevice" }

// Spec implements Element.
func (*toDevice) Spec() PortSpec {
	return PortSpec{NIn: 1, NOut: 0, In: []Processing{Agnostic}}
}

// Configure implements Element.
func (t *toDevice) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	t.devName = ca.Pos(0, "")
	if t.devName == "" {
		return fmt.Errorf("ToDevice requires a device name")
	}
	var err error
	if t.burst, err = ca.KeyInt("BURST", 32); err != nil {
		return err
	}
	if t.burst <= 0 {
		return fmt.Errorf("BURST %d out of range: must be positive", t.burst)
	}
	return nil
}

// Init implements initializer.
func (t *toDevice) Init() error {
	dev, ok := t.router.device(t.devName)
	if !ok {
		return fmt.Errorf("device %q not attached to router", t.devName)
	}
	t.dev = dev
	t.bdev, _ = dev.(BurstDevice)
	// Pull mode when processing negotiation resolved our input to pull
	// (a Queue somewhere upstream, possibly through agnostic elements).
	t.pullMode = t.resolvedIn(0) == pull
	return nil
}

// Push implements Element: a lone packet is a burst of one.
func (t *toDevice) Push(port int, p *Packet) { t.PushBatch(port, []*Packet{p}) }

// PushBatch implements Element.
func (t *toDevice) PushBatch(port int, ps []*Packet) {
	if t.bdev != nil {
		t.sendBurst(ps)
		return
	}
	for _, p := range ps {
		t.send(p)
	}
}

// RunTask implements tasker: drain a burst from the upstream Queue under
// one lock acquisition, then transmit.
func (t *toDevice) RunTask() bool {
	if !t.pullMode {
		return false
	}
	t.batch = t.pullInBatch(0, t.burst, t.batch[:0])
	if len(t.batch) == 0 {
		return false
	}
	t.PushBatch(0, t.batch)
	return true
}

// sendBurst hands the packets' frames to the burst device in one call,
// which owns them from then on, and recycles the packet structs.
func (t *toDevice) sendBurst(ps []*Packet) {
	for _, p := range ps {
		t.frames = append(t.frames, p.Data())
		p.Kill()
	}
	if err := t.bdev.SendBurst(t.frames); err != nil {
		t.drops.Add(uint64(len(t.frames)))
	} else {
		t.count.Add(uint64(len(t.frames)))
	}
	clear(t.frames)
	t.frames = t.frames[:0]
}

// send hands the packet's frame to the device, which owns it from then
// on, and recycles the packet struct.
func (t *toDevice) send(p *Packet) {
	if err := t.dev.Send(p.Data()); err != nil {
		t.drops.Add(1)
	} else {
		t.count.Add(1)
	}
	p.Kill()
}

// Handlers implements handlerProvider.
func (t *toDevice) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(t.count.Load(), 10) }},
		{Name: "drops", Read: func() string { return strconv.FormatUint(t.drops.Load(), 10) }},
		{Name: "device", Read: func() string { return t.devName }},
	}
}
