package netem

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// benchPipe builds a started shaped pipe delivering into a counter and
// returns it with a stop func. Bandwidth is set very high so the
// serialization wait is a short (but non-zero) timer arm per frame —
// exercising the reused-timer path without making the benchmark slow.
func benchPipe(delay time.Duration) (*pipe, *atomic.Uint64, func()) {
	var delivered atomic.Uint64
	p := newPipe(LinkConfig{
		Bandwidth: 10e9, // 10 Gb/s: ~80ns tx time per 100B frame
		Delay:     delay,
		QueueLen:  4096,
	}, func(frames [][]byte) { delivered.Add(uint64(len(frames))) }, 1)
	p.start()
	return p, &delivered, p.close
}

// BenchmarkShapedPipeAllocsPerFrame measures per-frame allocations through
// the serialization (and optionally delay-line) goroutines. Before the
// reused-timer fix each frame allocated a fresh time.After timer+channel
// in each stage; with the fix steady-state allocs/op should be ~0 beyond
// the frame payload itself (which the harness allocates once, outside
// the loop).
func BenchmarkShapedPipeAllocsPerFrame(b *testing.B) {
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"serialize", 0},
		{"serialize+delay", 50 * time.Microsecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, delivered, stop := benchPipe(tc.delay)
			defer stop()
			one := [][]byte{make([]byte, 100)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.send(one)
				// Keep the queue from overflowing into tail drops: pace
				// the producer against deliveries.
				for i-int(delivered.Load()+p.drops.Load()) > 2048 {
					time.Sleep(10 * time.Microsecond)
				}
			}
			b.StopTimer()
			deadline := time.Now().Add(5 * time.Second)
			for int(delivered.Load()+p.drops.Load()) < b.N && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestShapedPipeTimerReuse is the allocs/frame regression gate: it pushes
// a burst of frames through a shaped pipe with both stages active and
// asserts the pipe goroutines do not allocate per frame. The bound is
// generous (2 allocs/frame would already mean the per-frame time.After
// regression is back — each time.After costs ≥2 allocs per stage).
func TestShapedPipeTimerReuse(t *testing.T) {
	const frames = 400
	p, delivered, stop := benchPipe(20 * time.Microsecond)
	defer stop()
	one := [][]byte{make([]byte, 100)}

	// Warm up both goroutines and their timers.
	for i := 0; i < 8; i++ {
		p.send(one)
	}
	waitDelivered(t, delivered, 8)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		p.send(one)
	}
	waitDelivered(t, delivered, 8+frames)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perFrame := float64(allocs) / frames
	t.Logf("allocs=%d over %d frames (%.2f allocs/frame)", allocs, frames, perFrame)
	if perFrame > 2.0 {
		t.Fatalf("shaped pipe allocates %.2f allocs/frame (>2): per-frame timer churn regressed", perFrame)
	}
}

func waitDelivered(t *testing.T, delivered *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d deliveries (got %d)", want, delivered.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}
