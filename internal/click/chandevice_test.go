package click

// ChanDevice is an in-memory Device: a test feeds In and reads Out.
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
