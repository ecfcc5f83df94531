package packetlife

import (
	"escape/internal/click"
	"escape/internal/netem"
	"escape/internal/ofswitch"
)

// The frame half: a []byte handed to Device.Send or netem.Port.Send, or
// in a burst handed to Port.Transmit, Switch.Input or
// BurstDevice.SendBurst, belongs to the receiver, which edits it in place
// or passes it on. The sender must not touch it again.

func useAfterTransmit(p *ofswitch.Port, frame []byte) int {
	p.Transmit([][]byte{frame})
	return len(frame) // want `frame frame used after it was handed to ofswitch.Port.Transmit`
}

func writeAfterDeviceSend(dev click.Device, frame []byte) {
	if err := dev.Send(frame); err != nil {
		return
	}
	frame[0] = 0 // want `frame frame used after it was handed to click.Device.Send`
}

func useAfterPortSend(p *netem.Port, frame []byte) {
	p.Send(frame)
	use(frame) // want `frame frame used after it was handed to netem.Port.Send`
}

func useAfterInput(s *ofswitch.Switch, frame []byte) {
	s.Input(1, [][]byte{frame})
	s.Input(2, [][]byte{frame}) // want `frame frame used after it was handed to ofswitch.Switch.Input`
}

// A frame stored in a burst goes with the burst.
func useAfterBurstSend(dev click.BurstDevice, frame, other []byte) {
	burst := append(make([][]byte, 0, 2), frame, other)
	_ = dev.SendBurst(burst)
	burst = burst[:0]
	use(other[0]) // want `frame other used after it was handed to click.BurstDevice.SendBurst`
}

// The receiver takes the frames, not the slice: the sender reuses it.
func reuseBurstAfterInput(s *ofswitch.Switch, frame []byte, next func() []byte) int {
	burst := make([][]byte, 1)
	burst[0] = frame
	s.Input(1, burst)
	burst[0] = next()
	s.Input(1, burst)
	return len(burst)
}

// A send on one branch taints the join.
func useAfterBranchSend(p *netem.Port, frame []byte, fwd bool) {
	if fwd {
		p.Send(frame)
	}
	use(frame[0]) // want `frame frame used after it was handed to netem.Port.Send`
}

// The same buffer sent round a loop is sent twice.
func resendInLoop(p *netem.Port, frame []byte, n int) {
	for i := 0; i < n; i++ {
		p.Send(frame) // want `frame frame used after it was handed to netem.Port.Send`
	}
}

// Growing the sent slice reads it.
func appendAfterSend(p *netem.Port, frame []byte) []byte {
	p.Send(frame)
	frame = append(frame, 0) // want `frame frame used after it was handed to netem.Port.Send`
	return frame
}

func reassignThenUse(p *netem.Port, frame []byte, next func() []byte) int {
	p.Send(frame)
	frame = next()
	return len(frame)
}

func copyThenSend(p *netem.Port, frame []byte) []byte {
	p.Send(append([]byte(nil), frame...))
	return frame
}

func cloneIntoVariableThenSend(s *ofswitch.Switch, frame []byte) int {
	out := make([]byte, len(frame))
	copy(out, frame)
	s.Input(1, [][]byte{out})
	return len(frame)
}

// Each round of a range loop binds a fresh frame.
func sendEachFrame(p *netem.Port, frames [][]byte) {
	for _, f := range frames {
		p.Send(f)
	}
}

// A frame declared inside the loop body is a new one every round.
func buildAndSendInLoop(dev click.Device, n int) {
	for i := 0; i < n; i++ {
		frame := make([]byte, 64)
		frame[0] = byte(i)
		_ = dev.Send(frame)
	}
}

// Host.Send copies its caller's frame, so the caller keeps it.
func hostSendKeepsFrame(h *netem.Host, frame []byte) int {
	_ = h.Send(frame)
	return len(frame)
}

// A deferred send runs after every later statement.
func deferredSend(p *netem.Port, frame []byte) {
	defer p.Send(frame)
	frame[0] = 1
}

func suppressedUseAfterSend(p *netem.Port, frame []byte) int {
	p.Send(frame)
	//lint:ignore packetlife the receiver in the real code this mimics only reads
	return len(frame)
}
