package click

import (
	"context"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"escape/internal/pkt"
)

// fuseTestConfig is the differential chain: a fused-eligible source,
// two Fusible transforms, a Queue sink, and a pull-mode ToDevice.
const fuseTestConfig = `FromDevice(dev) -> cnt :: Counter -> pnt :: Paint(7) -> q :: Queue(256) -> td :: ToDevice(dev);`

// buildFlowTrace returns frames frames spread round-robin over flows UDP
// flows (distinct source ports), with the flow id and a per-flow sequence
// number in the first two payload bytes.
func buildFlowTrace(t *testing.T, frames, flows int) [][]byte {
	t.Helper()
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	var srcMAC, dstMAC pkt.MAC
	copy(srcMAC[:], []byte{2, 0, 0, 0, 0, 1})
	copy(dstMAC[:], []byte{2, 0, 0, 0, 0, 2})
	out := make([][]byte, 0, frames)
	seq := make([]int, flows)
	for i := 0; i < frames; i++ {
		fl := i % flows
		f, err := pkt.BuildUDP(srcMAC, dstMAC, src, dst, uint16(1000+fl), 9, []byte{byte(fl), byte(seq[fl])})
		if err != nil {
			t.Fatalf("BuildUDP: %v", err)
		}
		seq[fl]++
		out = append(out, f)
	}
	return out
}

// runFuseChain pushes the trace through fuseTestConfig under opts and
// returns the received frames plus the router (stopped) for handler reads.
func runFuseChain(t *testing.T, opts Options, trace [][]byte) ([][]byte, *Router) {
	t.Helper()
	dev := NewRingDevice("dev", 1024)
	opts.Devices = map[string]Device{"dev": dev}
	r, err := NewRouter("fusetest", fuseTestConfig, opts)
	if err != nil {
		t.Fatalf("NewRouter(%s): %v", opts.Driver, err)
	}
	for _, f := range trace {
		// Copy: the VNF takes ownership of what it receives, and the
		// trace is replayed across subtests.
		if !dev.In.Enqueue(append([]byte(nil), f...)) {
			t.Fatal("ingest ring full before start")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()

	// Block on the egress ring the way a downstream VNF would.
	var got [][]byte
	wake := make(chan struct{}, 1)
	timeout := time.After(10 * time.Second)
collect:
	for len(got) < len(trace) {
		before := len(got)
		got = dev.Out.DequeueBatch(got, 64)
		if len(got) == before && dev.Out.ArmWake(wake) {
			select {
			case <-wake:
			case <-timeout:
				break collect
			}
		}
	}
	cancel()
	<-done
	if len(got) != len(trace) {
		t.Fatalf("driver %s: received %d frames, want %d", opts.Driver, len(got), len(trace))
	}
	return got, r
}

// TestFusedDifferential runs the same flow trace through the locked
// single-threaded driver and the fused driver, and demands identical
// per-element counts and per-flow output order from both.
func TestFusedDifferential(t *testing.T) {
	const (
		frames = 200
		flows  = 8
	)
	trace := buildFlowTrace(t, frames, flows)

	type result struct {
		counts  map[string]string
		perFlow [][]int
	}
	run := func(opts Options) result {
		got, r := runFuseChain(t, opts, trace)
		perFlow := make([][]int, flows)
		for _, f := range got {
			if len(f) < 44 {
				t.Fatalf("driver %s: short output frame (%dB)", opts.Driver, len(f))
			}
			fl, seq := int(f[42]), int(f[43])
			if fl >= flows {
				t.Fatalf("driver %s: bad flow id %d", opts.Driver, fl)
			}
			perFlow[fl] = append(perFlow[fl], seq)
		}
		counts := map[string]string{}
		for _, h := range []string{"cnt.count", "td.count", "td.drops", "q.drops"} {
			v, err := r.ReadHandler(h)
			if err != nil {
				t.Fatalf("driver %s: ReadHandler(%s): %v", opts.Driver, h, err)
			}
			counts[h] = v
		}
		return result{counts: counts, perFlow: perFlow}
	}

	var base result
	for i, mode := range []DriverMode{SingleThreaded, Fused} {
		name := mode.String()
		res := run(Options{Driver: mode})
		// Per-flow order must be exactly 0,1,2,... for every flow under
		// every driver.
		for fl, seqs := range res.perFlow {
			for j, s := range seqs {
				if s != j {
					t.Fatalf("%s: flow %d position %d has seq %d, want %d", name, fl, j, s, j)
				}
			}
		}
		if i == 0 {
			base = res
			continue
		}
		for h, want := range base.counts {
			if res.counts[h] != want {
				t.Errorf("%s: handler %s = %s, want %s (single-threaded)", name, h, res.counts[h], want)
			}
		}
	}
}

// TestFusedFallbackChain checks that a chain broken by a non-Fusible
// element still forwards every packet: the compiler fuses up to the
// boundary and hands bursts across it via the ordinary locked path.
func TestFusedFallbackChain(t *testing.T) {
	const config = `FromDevice(dev) -> cnt :: Counter -> st :: Strip(0) -> cnt2 :: Counter -> q :: Queue(256) -> td :: ToDevice(dev);`
	dev := NewRingDevice("dev", 1024)
	r, err := NewRouter("fallback", config, Options{
		Driver:  Fused,
		Devices: map[string]Device{"dev": dev},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	// Strip is not Fusible, so the pipeline must stop before it.
	if r.fusedElems["st"] || r.fusedElems["cnt2"] {
		t.Fatal("non-Fusible element was fused")
	}
	if !r.fusedElems["cnt"] {
		t.Fatal("Fusible element directly after the source was not fused")
	}

	const frames = 100
	for i := 0; i < frames; i++ {
		dev.In.Enqueue(make([]byte, 64))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()
	var got [][]byte
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < frames && time.Now().Before(deadline) {
		got = dev.Out.DequeueBatch(got, 64)
	}
	cancel()
	<-done
	if len(got) != frames {
		t.Fatalf("received %d frames, want %d", len(got), frames)
	}
	for _, h := range []string{"cnt.count", "cnt2.count"} {
		v, err := r.ReadHandler(h)
		if err != nil {
			t.Fatalf("ReadHandler(%s): %v", h, err)
		}
		if v != strconv.Itoa(frames) {
			t.Fatalf("%s = %s, want %d", h, v, frames)
		}
	}
}

// TestFusedInjectPushRejected checks the InjectPush guard on
// pipeline-owned elements.
func TestFusedInjectPushRejected(t *testing.T) {
	dev := NewRingDevice("dev", 64)
	r, err := NewRouter("inject", fuseTestConfig, Options{
		Driver:  Fused,
		Devices: map[string]Device{"dev": dev},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	p := NewPacket(make([]byte, 64))
	if err := r.InjectPush("cnt", 0, p); err == nil {
		t.Fatal("InjectPush into a fused element succeeded; want rejection")
	}
	p.Kill()
	// The single-pipeline compiler fuses through the queue into td, so td
	// is pipeline-owned too.
	p2 := NewPacket(make([]byte, 64))
	if err := r.InjectPush("td", 0, p2); err == nil {
		t.Fatal("InjectPush into the fused-through sink succeeded; want rejection")
	}
	p2.Kill()
}

// TestFusedQueueResizeRejected checks that the capacity write handler is
// refused once a queue is on a lock-free ring.
func TestFusedQueueResizeRejected(t *testing.T) {
	dev := NewRingDevice("dev", 64)
	r, err := NewRouter("resize", fuseTestConfig, Options{
		Driver:  Fused,
		Devices: map[string]Device{"dev": dev},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := r.WriteHandler("q.capacity", "512"); err == nil {
		t.Fatal("capacity write on ring-mode queue succeeded; want rejection")
	}
	// Other queue handlers keep working.
	if _, err := r.ReadHandler("q.length"); err != nil {
		t.Fatalf("q.length: %v", err)
	}
}

// TestFusedStats checks that the per-pipeline perf counters move.
func TestFusedStats(t *testing.T) {
	trace := buildFlowTrace(t, 50, 4)
	_, r := runFuseChain(t, Options{Driver: Fused}, trace)
	stats := r.FusedStats()
	if len(stats) != 1 {
		t.Fatalf("FusedStats returned %d pipelines, want 1", len(stats))
	}
	s := stats[0]
	if s.Name == "" {
		t.Fatalf("pipeline has no name: %+v", s)
	}
	if s.Packets != 50 {
		t.Fatalf("pipeline counted %d packets, want 50", s.Packets)
	}
	if s.Batches == 0 || s.BusyNs == 0 {
		t.Fatalf("pipeline stats did not move: %+v", s)
	}
}
