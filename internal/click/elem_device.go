package click

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Device elements: the graph's boundary to the VNF's ports.

func init() {
	RegisterElement("FromDevice", func() Element { return &FromDevice{} })
	RegisterElement("ToDevice", func() Element { return &ToDevice{} })
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
	if f.burst <= 0 {
		return fmt.Errorf("BURST %d out of range: must be positive", f.burst)
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

// takeParked appends the stashed frame, if any, as a packet that owns it.
func (f *FromDevice) takeParked(buf []*Packet) []*Packet {
	if f.parked == nil {
		return buf
	}
	buf = append(buf, NewPacket(f.parked))
	f.parked = nil
	return buf
}

// RunTask implements Tasker: drain up to a burst of frames off the device,
// then hand the whole batch downstream under one lock acquisition. Each
// frame becomes a pooled packet that owns it: the device hands it over.
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
	if t.burst <= 0 {
		return fmt.Errorf("BURST %d out of range: must be positive", t.burst)
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

// send hands the packet's frame to the device, which owns it from then
// on, and recycles the packet struct.
func (t *ToDevice) send(p *Packet) {
	if err := t.dev.Send(p.Data()); err != nil {
		t.drops.Add(1)
	} else {
		t.count.Add(1)
	}
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
