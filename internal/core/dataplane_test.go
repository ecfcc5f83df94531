package core

import (
	"runtime"
	"testing"
	"time"

	"escape/internal/pkt"
)

// TestChainFrameAllocatesOnce pins one buffer per frame end to end: a
// 64-byte frame through a deployed four-monitor chain — two switches,
// tag push and pop, four VNF hops — costs the one copy Host.Send makes
// where it enters the network. The bound leaves 0.1 a frame for what the
// running environment allocates meanwhile.
func TestChainFrameAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := startEnv(t, demoSpec())
	if _, err := env.Orch.Deploy(sapGraph("mon4", "monitor", "monitor", "monitor", "monitor")); err != nil {
		t.Fatal(err)
	}
	h1, h2 := env.Host("h1"), env.Host("h2")
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 5000, 5001, make([]byte, 22))
	if err != nil {
		t.Fatal(err)
	}
	rx := h2.Recv()
	// run keeps window frames in flight until n have come back.
	run := func(n, window int) {
		timeout := time.NewTimer(time.Hour)
		defer timeout.Stop()
		for sent, got := 0, 0; got < n; got++ {
			for ; sent < n && sent-got < window; sent++ {
				if err := h1.Send(frame); err != nil {
					t.Fatal(err)
				}
			}
			timeout.Reset(5 * time.Second)
			select {
			case <-rx:
			case <-timeout.C:
				t.Fatalf("%d of %d frames came back", got, n)
			}
		}
	}
	run(1000, 32) // warm the pools, queues and timers up
	const frames = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(frames, 32)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / frames; per > 1.1 {
		t.Errorf("a frame through the chain costs %.2f allocations, want ≤ 1.1", per)
	} else {
		t.Logf("%.3f allocations a frame", per)
	}
}
