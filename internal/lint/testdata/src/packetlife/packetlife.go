// Corpus for the packetlife analyzer's packet half. The bad cases
// reproduce the PR 1 pooled-allocator leak class: a packet obtained from
// the pool is abandoned on some control-flow path instead of reaching
// Kill or a downstream handoff. frames.go holds the frame half.
package packetlife

import "escape/internal/click"

func use(interface{}) {}

// Regression: the historical drop-path leak — an early return on a
// filter miss skips the Kill.
func dropPathLeak(data []byte, miss bool) {
	p := click.NewPacket(data) // want `packet p may leak`
	if miss {
		return
	}
	p.Kill()
}

func killedOnAllPaths(data []byte, miss bool) {
	p := click.NewPacket(data)
	if miss {
		p.Kill()
		return
	}
	p.Kill()
}

func handoffAsArgument(data []byte) {
	p := click.NewPacket(data)
	use(p)
}

func returned(data []byte) *click.Packet {
	p := click.NewPacket(data)
	return p
}

func sentOnChannel(data []byte, ch chan *click.Packet) {
	p := click.NewPacket(data)
	ch <- p
}

func storedInSlice(data []byte, ring []*click.Packet) {
	p := click.NewPacket(data)
	ring[0] = p
}

func capturedByLiteral(data []byte) func() {
	p := click.NewPacket(data)
	return func() { p.Kill() }
}

func deferredKill(data []byte, miss bool) {
	p := click.NewPacket(data)
	defer p.Kill()
	if miss {
		return
	}
	use(p.Len())
}

// A read (field access, Length) is not a consumption; the packet still
// leaks on the fall-through path.
func readIsNotConsumption(data []byte) int {
	p := click.NewPacket(data) // want `packet p may leak`
	return p.Len()
}

func discardedOutright(data []byte) {
	click.NewPacket(data) // want `packet created and discarded`
}

func assignedToBlank(data []byte) {
	_ = click.NewPacket(data) // want `packet created and discarded`
}

func leakInLoop(frames [][]byte, keep func(int) bool) {
	for i, f := range frames {
		p := click.NewPacket(f) // want `packet p may leak`
		if !keep(i) {
			// Passing p itself to the predicate would be a handoff;
			// abandoning it on the continue path is the leak.
			continue
		}
		p.Kill()
	}
}

func switchConsumesEveryCase(data []byte, kind int) {
	p := click.NewPacket(data)
	switch kind {
	case 0:
		p.Kill()
	case 1:
		use(p)
	default:
		p.Kill()
	}
}

func switchMissesACase(data []byte, kind int) {
	p := click.NewPacket(data) // want `packet p may leak`
	switch kind {
	case 0:
		p.Kill()
	}
}

// The suppression directive must silence the report (and the ignored
// line must not show up as an unexpected diagnostic).
func suppressed(data []byte, miss bool) {
	//lint:ignore packetlife ownership transferred out of band in the real code this mimics
	p := click.NewPacket(data)
	if miss {
		return
	}
	p.Kill()
}

// --- Burst patterns -----------------------------------------------------
//
// Batched ingest and transmit hand packets around as slices; ownership
// rules are the same.

// The ingest idiom: wrap a received frame and append it to the burst — the
// append is a store handoff.
func ingestAppendOK(frames [][]byte, burst []*click.Packet) []*click.Packet {
	for _, f := range frames {
		p := click.NewPacket(f)
		burst = append(burst, p)
	}
	return burst
}

// A transform that drops must Kill before compacting the packet out of
// the burst; reading a header first does not consume it.
func dropWithoutKill(frame []byte, drop bool) *click.Packet {
	p := click.NewPacket(frame) // want `packet p may leak`
	if drop && p.Len() < 64 {
		return nil
	}
	return p
}

func dropWithKill(frame []byte, drop bool) *click.Packet {
	p := click.NewPacket(frame)
	if drop && p.Len() < 64 {
		p.Kill()
		return nil
	}
	return p
}

// The transmit idiom: the device takes the frame, the struct goes back to
// the pool.
func sinkKillOK(frame []byte, tx func([]byte)) {
	p := click.NewPacket(frame)
	tx(p.Data())
	p.Kill()
}
