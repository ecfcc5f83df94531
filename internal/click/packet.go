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
//   - a pooled packet allocator (NewPacket/Clone draw from a sync.Pool,
//     Kill reclaims),
//   - read/write handlers on every element, and
//   - a ControlSocket server speaking Click's ClickControl/1.3 protocol so
//     monitoring tools (ESCAPE's Clicky substitute, internal/mgmt) can poll
//     live VNFs.
//
// Concurrency: there is no global router lock. Each element carries its
// own mutex (see Base), acquired by whoever invokes the element — the
// neighbour on PushOut/PullIn, the driver around RunTask and ticks, the
// router around handler access, InjectPush on behalf of external traffic
// tools. Handler reads and injected pushes therefore stay race-free against
// a running driver.
//
// A standard element library (Queue, Classifier, Counter, Tee, EtherEncap,
// CheckIPHeader, …) lives in this package; ESCAPE's VNF-specific elements
// (HeaderCompressor, Firewall, NAT, …) are registered by internal/catalog
// through the extensible element registry.
package click

import (
	"fmt"
	"sync"
	"time"
)

// headroom is reserved in front of new packet buffers so encapsulating
// elements (EtherEncap, VLANEncap) can usually prepend without copying —
// the same trick Click's packet class uses.
const headroom = 32

// Packet is the unit of data flowing between elements. The payload is a
// full Ethernet frame in wire format (see internal/pkt). Internally a
// packet owns a buffer with headroom so Strip/Unstrip/Prepend are O(1).
type Packet struct {
	buf []byte
	off int
	// Timestamp is zero until a SetTimestamp element stamps the packet:
	// creating one reads no clock. Clone copies it.
	Timestamp time.Time
	// Paint is Click's paint annotation, set by Paint and read by
	// PaintSwitch.
	Paint uint8
	// Mark is a general-purpose 32-bit annotation (Click's user anno
	// space, condensed).
	Mark uint32
}

// maxPooledBuf caps the buffer size retained by the packet pool so one
// jumbo frame does not pin memory for the lifetime of the pool entry.
const maxPooledBuf = 16 << 10

// packetPool recycles Packet structs and their buffers. NewPacket and
// Clone draw from it; Kill returns to it. Elements that drop a packet own
// it and should Kill it; a forgotten Kill merely falls back to GC.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket wraps a copy of data in a Packet with zero annotations. The
// packet comes from a pool fed by Kill, so steady-state processing with
// balanced Kill calls allocates nothing.
func NewPacket(data []byte) *Packet {
	p := packetPool.Get().(*Packet)
	need := headroom + len(data)
	if cap(p.buf) < need {
		p.buf = make([]byte, need)
	} else {
		p.buf = p.buf[:need]
	}
	copy(p.buf[headroom:], data)
	p.off = headroom
	p.Timestamp = time.Time{}
	p.Paint = 0
	p.Mark = 0
	return p
}

// Kill releases the packet back to the allocator pool. The caller must
// own the packet and must not touch it afterwards: Kill is the terminal
// operation of every drop path (tail drop, classifier miss, Discard) and
// of ToDevice after the frame has been detached.
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
	d := p.buf[p.off:]
	p.buf = nil
	p.off = 0
	return d
}

// Data returns the current frame bytes. The slice aliases packet-owned
// storage: elements may mutate it in place but must use SetData/Prepend to
// change its length upward.
func (p *Packet) Data() []byte { return p.buf[p.off:] }

// Len returns the frame length in bytes.
func (p *Packet) Len() int { return len(p.buf) - p.off }

// SetData replaces the frame bytes entirely (fresh headroom). The packet's
// existing buffer is reused when large enough; data may alias the current
// frame (copy has memmove semantics).
func (p *Packet) SetData(data []byte) {
	need := headroom + len(data)
	if cap(p.buf) >= need {
		p.buf = p.buf[:need]
	} else {
		p.buf = make([]byte, need)
	}
	copy(p.buf[headroom:], data)
	p.off = headroom
}

// Strip removes n bytes from the front of the frame.
func (p *Packet) Strip(n int) error {
	if n < 0 || n > p.Len() {
		return fmt.Errorf("click: strip %d of %d bytes", n, p.Len())
	}
	p.off += n
	return nil
}

// Unstrip restores n previously stripped bytes (they remain in the buffer
// until overwritten by Prepend/SetData).
func (p *Packet) Unstrip(n int) error {
	if n < 0 || n > p.off {
		return fmt.Errorf("click: unstrip %d with only %d stripped", n, p.off)
	}
	p.off -= n
	return nil
}

// Prepend grows the frame by len(b) at the front, copying b in. It reuses
// headroom when available.
func (p *Packet) Prepend(b []byte) {
	if len(b) <= p.off {
		p.off -= len(b)
		copy(p.buf[p.off:], b)
		return
	}
	nb := make([]byte, headroom+len(b)+p.Len())
	copy(nb[headroom:], b)
	copy(nb[headroom+len(b):], p.Data())
	p.buf = nb
	p.off = headroom
}

// Clone deep-copies the packet (used by Tee). The clone carries its own
// fresh headroom.
func (p *Packet) Clone() *Packet {
	q := NewPacket(p.Data())
	q.Timestamp = p.Timestamp
	q.Paint = p.Paint
	q.Mark = p.Mark
	return q
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
