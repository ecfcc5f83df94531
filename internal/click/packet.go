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
//   - a pooled packet allocator (NewPacket draws a struct from a
//     sync.Pool and takes the frame it is given, Kill reclaims the struct),
//   - read/write handlers on every element, and
//   - a ControlSocket server speaking Click's ClickControl/1.3 protocol so
//     monitoring tools (ESCAPE's Clicky substitute, internal/mgmt) can poll
//     live VNFs.
//
// Concurrency: there is no global router lock. Each element carries its
// own mutex (see Base), acquired by whoever invokes the element — the
// neighbour on PushOut/PullIn, the driver around RunTask, the
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

// packetPool recycles Packet structs; a frame's buffer moves on with the
// frame. NewPacket draws from it; Kill returns to it. Elements that drop
// a packet own it and should Kill it; a forgotten Kill merely falls back
// to GC.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket wraps data in a Packet, which takes ownership of it: the
// caller must not touch data afterwards. The struct comes from a pool fed
// by Kill, so steady-state processing with balanced Kill calls allocates
// nothing.
//
//lint:ignore deadexport test seam: catalog's element tests hand packets to SimpleAction with it, and packetlife tracks its calls by this name
func NewPacket(data []byte) *Packet {
	p := packetPool.Get().(*Packet)
	p.buf = data
	return p
}

// Kill releases the packet back to the allocator pool. The caller must
// own the packet and must not touch it afterwards: Kill is the terminal
// operation of every drop path (tail drop, firewall deny, …) and of
// ToDevice once the device has taken the frame.
func (p *Packet) Kill() {
	if p == nil {
		return
	}
	p.buf = nil
	packetPool.Put(p)
}

// Data returns the current frame bytes. The slice aliases packet-owned
// storage: elements may mutate it in place but must use SetData to change
// its length.
func (p *Packet) Data() []byte { return p.buf }

// Len returns the frame length in bytes.
func (p *Packet) Len() int { return len(p.buf) }

// SetData replaces the frame with data, which the packet takes ownership
// of; data may alias the current frame.
func (p *Packet) SetData(data []byte) { p.buf = data }

// Device is the boundary between a Click graph and the outside world.
// FromDevice reads frames from a Device, ToDevice writes frames to it.
// internal/netem VNF container ports implement Device.
type Device interface {
	// DeviceName identifies the device inside a VNF ("eth0", "in", …).
	DeviceName() string
	// Send transmits a frame out of the VNF and takes ownership of it,
	// whether it succeeds or not: ToDevice never touches a frame it has
	// sent.
	Send(frame []byte) error
	// Recv returns the channel of frames arriving at the VNF. The channel
	// is never closed while the device is attached.
	Recv() <-chan []byte
}
