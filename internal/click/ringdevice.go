package click

// BatchRecver is implemented by devices that can hand over several
// received frames in one non-blocking call. Ownership of every returned
// frame transfers to the caller, so ingest paths may adopt the slices
// directly into packets (AdoptPacket) without copying. FromDevice
// prefers this path under every driver when the device supports it.
type BatchRecver interface {
	// RecvBatch appends up to max pending frames to buf and returns the
	// extended slice. It never blocks.
	RecvBatch(buf [][]byte, max int) [][]byte
}

// BatchSender is implemented by devices that can accept several frames
// in one call, amortizing the per-frame synchronization. SendBatch
// returns how many frames were accepted (a prefix of frames); ownership
// of accepted frames transfers to the device, the remainder stays with
// the caller. ToDevice prefers this path under every driver.
type BatchSender interface {
	SendBatch(frames [][]byte) int
}

// WakeArmer is implemented by devices that have no receive channel (Recv
// returns nil), so that a FromDevice on them can block instead of polling.
// The driver calls ArmWake when a round of tasks found nothing to do: the
// device must send once on wake, without blocking, when frames next become
// available, and report whether none are pending now. On false nothing
// stays armed and the driver runs another round instead of blocking.
type WakeArmer interface {
	ArmWake(wake chan<- struct{}) bool
}

// RingDevice is a Device backed by lock-free SPSC rings instead of
// channels: the boundary between two VNFs in a chain (or between a
// traffic harness and a VNF) becomes two atomic ring operations per
// burst rather than channel sends. Frames passed through a RingDevice
// transfer ownership — the sender must not reuse a frame after Send
// accepts it, which is what lets the fused fast path move frames through
// whole chains with zero copies.
//
// Each ring must have exactly one producer and one consumer goroutine:
// share a ring between two RingDevices (left VNF's Out is right VNF's
// In) to join VNFs, exactly like sharing channels between ChanDevices.
type RingDevice struct {
	Name string
	In   *SPSCRing[[]byte] // frames for the VNF to consume
	Out  *SPSCRing[[]byte] // frames the VNF emitted
}

// NewRingDevice returns a RingDevice with both rings allocated at the
// given depth (rounded up to a power of two).
func NewRingDevice(name string, depth int) *RingDevice {
	return &RingDevice{
		Name: name,
		In:   NewSPSCRing[[]byte](depth),
		Out:  NewSPSCRing[[]byte](depth),
	}
}

// DeviceName implements Device.
func (d *RingDevice) DeviceName() string { return d.Name }

// Send implements Device. It drops when the out ring is full rather than
// blocking the driver (a full NIC TX ring drops too).
func (d *RingDevice) Send(frame []byte) error {
	if d.Out == nil || !d.Out.Enqueue(frame) {
		return ErrDeviceFull
	}
	return nil
}

// SendBatch implements BatchSender: one atomic publish per burst.
func (d *RingDevice) SendBatch(frames [][]byte) int {
	if d.Out == nil {
		return 0
	}
	return d.Out.EnqueueBatch(frames)
}

// Recv implements Device. A RingDevice has no receive channel: consumers
// drain it through RecvBatch and block through ArmWake.
func (d *RingDevice) Recv() <-chan []byte { return nil }

// ArmWake implements WakeArmer on the In ring, so whoever enqueues there —
// the upstream VNF's ToDevice or a harness holding the ring — wakes the
// consumer with its publish.
func (d *RingDevice) ArmWake(wake chan<- struct{}) bool {
	return d.In == nil || d.In.ArmWake(wake)
}

// RecvBatch implements BatchRecver.
func (d *RingDevice) RecvBatch(buf [][]byte, max int) [][]byte {
	if d.In == nil {
		return buf
	}
	return d.In.DequeueBatch(buf, max)
}
