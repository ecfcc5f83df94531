package click

import (
	"context"
	"strconv"
	"testing"
	"time"
)

func TestTimedSourceEmitsPeriodically(t *testing.T) {
	r := mustRouter(t, `
		src :: TimedSource(INTERVAL 10ms);
		c :: Counter;
		src -> c -> Discard;
	`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	// The sleep is the assertion: it is the window the emissions are
	// counted over.
	time.Sleep(120 * time.Millisecond)
	r.Stop()
	n := counterCount(t, r, "c")
	// ~12 expected; accept a broad band for scheduler jitter.
	if n < 5 || n > 30 {
		t.Errorf("timed source emitted %d in 120ms at 10ms interval", n)
	}
}

func TestTimedSourceClickStyleInterval(t *testing.T) {
	// Click style: bare seconds as a float.
	r := mustRouter(t, `src :: TimedSource(0.5); src -> Discard;`)
	_ = r
	if _, err := NewRouter("t", `src :: TimedSource(INTERVAL nonsense); src -> Discard;`, Options{}); err == nil {
		t.Error("bad interval accepted")
	}
	if _, err := NewRouter("t", `src :: TimedSource(INTERVAL -5ms); src -> Discard;`, Options{}); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestBandwidthShaperLimitsBytes(t *testing.T) {
	// 10 KB/s shaper: 100 64-byte packets = 6400 bytes ≈ 0.64s to drain.
	r := mustRouter(t, `
		q :: Queue(200);
		shaper :: BandwidthShaper(10000);
		sink :: Counter;
		q -> shaper -> Unqueue -> sink -> Discard;
	`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	pushN(t, r, "q", 100)
	// The sleep is the assertion: what the shaper lets through is counted
	// over this window.
	time.Sleep(200 * time.Millisecond)
	mid := counterCount(t, r, "sink")
	// At 10KB/s ≈ 156 pkt/s, 200ms ≈ 31 packets (+1500B initial burst ≈ 23).
	if mid > 80 {
		t.Errorf("shaper passed %d packets in 200ms at 10KB/s", mid)
	}
	if mid == 0 {
		t.Error("shaper passed nothing")
	}
	r.Stop()
}

func TestRatedUnqueueHandlerUpdatesRate(t *testing.T) {
	r := mustRouter(t, `
		q :: Queue(1000);
		ru :: RatedUnqueue(RATE 10);
		q -> ru -> Discard;
	`)
	if v := readUint(t, r, "ru.rate"); v != "10" {
		t.Errorf("rate = %s", v)
	}
	if err := r.WriteHandler("ru.rate", "5000"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "ru.rate"); v != "5000" {
		t.Errorf("rate after write = %s", v)
	}
	if err := r.WriteHandler("ru.rate", "zero"); err == nil {
		t.Error("bad rate accepted")
	}
}

func TestQueueCapacityResizePreservesContents(t *testing.T) {
	r := mustRouter(t, `
		q :: Queue(10);
		q -> Unqueue -> Discard;
	`)
	pushN(t, r, "q", 8)
	if err := r.WriteHandler("q.capacity", "4"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "q.length"); v != "4" {
		t.Errorf("length after shrink = %s", v)
	}
	if err := r.WriteHandler("q.capacity", "100"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "q.length"); v != "4" {
		t.Errorf("length after grow = %s", v)
	}
	// Contents still drain in order.
	q := r.Element("q").(*Queue)
	drained := 0
	for q.Pull(0) != nil {
		drained++
	}
	if drained != 4 {
		t.Errorf("drained %d", drained)
	}
}

func TestInfiniteSourceActiveHandler(t *testing.T) {
	out := NewChanDevice("out", 1)
	r, err := NewRouter("t", `
		src :: InfiniteSource(BURST 4);
		c :: Counter;
		src -> c -> ToDevice(out);
	`, Options{Devices: map[string]Device{"out": out}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteHandler("src.active", "false"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	// The timed wait is the assertion: the device stays silent.
	select {
	case <-out.Out:
		t.Errorf("inactive source emitted %d", counterCount(t, r, "c"))
	case <-time.After(20 * time.Millisecond):
	}
	if err := r.WriteHandler("src.active", "true"); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, out.Out, "the reactivated source to emit")
	r.Stop()
}

func TestDiscardCountAndReset(t *testing.T) {
	r := mustRouter(t, `d :: Discard;`)
	pushN(t, r, "d", 5)
	if v := readUint(t, r, "d.count"); v != "5" {
		t.Errorf("count = %s", v)
	}
	if err := r.WriteHandler("d.reset", ""); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "d.count"); v != "0" {
		t.Errorf("count after reset = %s", v)
	}
}

func TestResolvedProcessingThroughAgnosticChain(t *testing.T) {
	// Queue → Counter → Counter → ToDevice: the pull discipline must
	// propagate through both agnostic counters to ToDevice.
	out := NewChanDevice("out", 16)
	r, err := NewRouter("t", `
		q :: Queue(16);
		a :: Counter; b :: Counter;
		q -> a -> b -> ToDevice(out);
	`, Options{Devices: map[string]Device{"out": out}})
	if err != nil {
		t.Fatal(err)
	}
	ab := r.Element("a").(*Counter)
	if got := ab.ResolvedIn(0); got != Pull {
		t.Errorf("counter resolved to %s, want l", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	defer r.Stop()
	r.InjectPush("q", 0, NewPacket(make([]byte, 9)))
	select {
	case f := <-out.Out:
		if len(f) != 9 {
			t.Errorf("frame len = %d", len(f))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull chain did not drain")
	}
}

func TestVLANEncapValidation(t *testing.T) {
	if _, err := NewRouter("t", `v :: VLANEncap(VLAN_ID 5000); v -> Discard;`, Options{}); err == nil {
		t.Error("oversized VLAN_ID accepted")
	}
	if _, err := NewRouter("t", `v :: VLANEncap; v -> Discard;`, Options{}); err == nil {
		t.Error("missing VLAN_ID accepted")
	}
}

func TestUptimeAndDoubleRun(t *testing.T) {
	out := NewChanDevice("out", 1)
	r, err := NewRouter("t", `InfiniteSource(LIMIT 1) -> ToDevice(out);`, Options{Devices: map[string]Device{"out": out}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Uptime() != 0 {
		t.Error("uptime before run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	go r.Run(ctx) // second Run must be a no-op, not a panic
	recvFrame(t, out.Out, "the driver to start")
	if r.Uptime() <= 0 {
		t.Error("uptime not advancing")
	}
	r.Stop()
}

func TestHandlerNamesComplete(t *testing.T) {
	r := mustRouter(t, `c :: Counter; c -> Discard;`)
	names := r.HandlerNames()
	want := map[string]bool{"c.count": true, "c.class": true, "list": true, "version": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing handler names: %v (got %v)", want, names)
	}
	// Sorted?
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("handler names unsorted at %d", i)
		}
	}
}

func TestElementConfigString(t *testing.T) {
	r := mustRouter(t, `q :: Queue(5); InfiniteSource -> q -> Unqueue -> Discard;`)
	v, err := r.ReadHandler("q.config")
	if err != nil || v != "5" {
		t.Errorf("config = %q err=%v", v, err)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n != 5 {
		t.Errorf("config not numeric: %q", v)
	}
}
