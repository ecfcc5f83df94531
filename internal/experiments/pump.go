package experiments

import (
	"errors"
	"time"

	"escape/internal/netem"
	"escape/internal/pkt"
)

// errPumpTimeout reports that the wanted payload never arrived.
var errPumpTimeout = errors.New("experiments: payload never delivered")

// pumpFrame retransmits frame from src until dst receives a UDP frame
// carrying payload (or timeout passes), returning the elapsed time to
// first delivery. The 100ms retransmit tick reuses one Timer across
// iterations — the previous per-iteration time.After allocated a fresh
// timer every loop, garbage that a tight delivery race can pile up by
// the thousands.
func pumpFrame(src, dst *netem.Host, frame []byte, payload string, timeout time.Duration) (time.Duration, error) {
	const retransmit = 100 * time.Millisecond
	start := time.Now()
	deadline := start.Add(timeout)
	retry := time.NewTimer(retransmit)
	defer retry.Stop()
	for time.Now().Before(deadline) {
		src.Send(frame)
		retry.Reset(retransmit)
		select {
		case rx := <-dst.Recv():
			dec := pkt.Decode(rx.Frame)
			if u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok && string(u.Payload()) == payload {
				return time.Since(start), nil
			}
		case <-retry.C:
		}
	}
	return 0, errPumpTimeout
}
