// Package click implements a Click modular router engine in Go: VNFs in
// ESCAPE are Click element graphs described in the Click configuration
// language, exactly as in the original system (Kohler et al., TOCS 2000).
//
// The engine provides:
//
//   - the Element interface with push/pull/agnostic port processing and
//     batched handoff (PushBatch) on hot push paths,
//   - a parser for the Click configuration language subset ESCAPE uses
//     (declarations, connections, anonymous elements, port specifiers),
//   - one driver, Click's userlevel one: a single goroutine runs every
//     scheduler task round-robin and blocks in a select on the router's
//     devices when none has work (idle.go),
//   - a pooled packet allocator (NewPacket draws from a sync.Pool, Kill
//     reclaims),
//   - read/write handlers on every element, and
//   - a ControlSocket server speaking Click's ClickControl/1.3 protocol so
//     monitoring tools (ESCAPE's Clicky substitute, internal/mgmt) can poll
//     live VNFs.
//
// Concurrency: there is no global router lock. Each element carries its
// own mutex (see Base), acquired by whoever invokes the element — the
// neighbour on PushOut/PullIn, the driver around RunTask and ticks, the
// router around handler access. Handler reads and writes therefore stay
// race-free against a running driver.
//
// The package defines the five element classes the VNF catalog's
// templates wire around their own: FromDevice, ToDevice, Counter, Queue
// and RatedUnqueue. ESCAPE's VNF-specific elements (HeaderCompressor,
// Firewall, NAT, …) are registered by internal/catalog through the
// element registry. A class belongs here only while a catalog type
// deploys it.
package click

import (
	"sync"
)

// Packet is the unit of data flowing between elements: a full Ethernet
// frame in wire format (see internal/pkt) in a packet-owned buffer.
type Packet struct {
	buf []byte
}

// maxPooledBuf caps the buffer size retained by the packet pool so one
// jumbo frame does not pin memory for the lifetime of the pool entry.
const maxPooledBuf = 16 << 10

// packetPool recycles Packet structs and their buffers. NewPacket draws
// from it; Kill returns to it. Elements that drop a packet own it and
// should Kill it; a forgotten Kill merely falls back to GC.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket wraps a copy of data in a Packet. The packet comes from a pool
// fed by Kill, so steady-state processing with balanced Kill calls
// allocates nothing.
func NewPacket(data []byte) *Packet {
	p := packetPool.Get().(*Packet)
	p.SetData(data)
	return p
}

// Kill releases the packet back to the allocator pool. The caller must
// own the packet and must not touch it afterwards: Kill is the terminal
// operation of every drop path (tail drop, firewall deny, …) and of
// ToDevice after the frame has been detached.
func (p *Packet) Kill() {
	if p == nil {
		return
	}
	if cap(p.buf) > maxPooledBuf {
		p.buf = nil
	}
	packetPool.Put(p)
}

// Detach removes and returns the frame bytes, leaving the packet empty.
// Use it before Kill when the bytes outlive the packet — Device.Send
// implementations may retain the frame, so ToDevice detaches rather than
// letting the pool recycle storage a device still references.
func (p *Packet) Detach() []byte {
	d := p.buf
	p.buf = nil
	return d
}

// Data returns the current frame bytes. The slice aliases packet-owned
// storage: elements may mutate it in place but must use SetData to change
// its length.
func (p *Packet) Data() []byte { return p.buf }

// Len returns the frame length in bytes.
func (p *Packet) Len() int { return len(p.buf) }

// SetData replaces the frame bytes entirely. The packet's existing buffer
// is reused when large enough; data may alias the current frame (copy has
// memmove semantics).
func (p *Packet) SetData(data []byte) {
	if cap(p.buf) >= len(data) {
		p.buf = p.buf[:len(data)]
	} else {
		p.buf = make([]byte, len(data))
	}
	copy(p.buf, data)
}

// Device is the boundary between a Click graph and the outside world.
// FromDevice reads frames from a Device, ToDevice writes frames to it.
// internal/netem VNF container ports implement Device.
type Device interface {
	// DeviceName identifies the device inside a VNF ("eth0", "in", …).
	DeviceName() string
	// Send transmits a frame out of the VNF. On success the device takes
	// ownership of frame and may retain it (ToDevice detaches the buffer
	// from its packet before sending); on error the frame must not be
	// retained, so the caller can recycle it.
	Send(frame []byte) error
	// Recv returns the channel of frames arriving at the VNF. The channel
	// is never closed while the device is attached.
	Recv() <-chan []byte
}

// ChanDevice is an in-memory Device for tests and stand-alone VNFs.
type ChanDevice struct {
	Name string
	In   chan []byte // frames for the VNF to consume
	Out  chan []byte // frames the VNF emitted
}

// NewChanDevice returns a ChanDevice with the given buffer capacity.
func NewChanDevice(name string, depth int) *ChanDevice {
	return &ChanDevice{Name: name, In: make(chan []byte, depth), Out: make(chan []byte, depth)}
}

// DeviceName implements Device.
func (d *ChanDevice) DeviceName() string { return d.Name }

// Send implements Device. It drops when the out buffer is full rather than
// blocking the driver (a full NIC ring drops too).
func (d *ChanDevice) Send(frame []byte) error {
	select {
	case d.Out <- frame:
		return nil
	default:
		return ErrDeviceFull
	}
}

// Recv implements Device.
func (d *ChanDevice) Recv() <-chan []byte { return d.In }
