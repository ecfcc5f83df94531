package click

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func readUint(t *testing.T, r *Router, spec string) string {
	t.Helper()
	v, err := r.ReadHandler(spec)
	if err != nil {
		t.Fatalf("ReadHandler(%s): %v", spec, err)
	}
	return v
}

func TestRouterBuildErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"x :: NoSuchClass;", "unknown element class"},
		{"c :: Counter;", "unconnected"},
		{"f :: FromDevice(in); t :: ToDevice(out); f -> t; f -> t;", "connected twice"},
		{"c :: Counter; FromDevice(in) -> q :: Queue -> ToDevice(out); c -> q;", "connected twice"},
		{"f :: FromDevice(in); f[3] -> ToDevice(out);", "output port"},
		{"FromDevice(in) -> Queue(0) -> ToDevice(out);", "capacity"},
		{"FromDevice(in) -> Queue(1048577) -> ToDevice(out);", "out of range"},
		{"FromDevice(in) -> Queue(99999999999) -> ToDevice(out);", "out of range"},
		{"FromDevice(in) -> Queue(x) -> ToDevice(out);", "not an integer"},
		{"FromDevice(in, BURST 0) -> ToDevice(out);", "BURST 0 out of range"},
		{"FromDevice(in) -> Queue -> ToDevice(out, BURST -1);", "BURST -1 out of range"},
		{"FromDevice(in) -> Queue -> RatedUnqueue(RATE 0) -> ToDevice(out);", "bad RATE"},
		{"FromDevice(in) -> Queue -> RatedUnqueue(RATE NaN) -> ToDevice(out);", "bad RATE"},
		// push output directly into pull input
		{"FromDevice(in) -> RatedUnqueue -> ToDevice(out);", "push/pull conflict"},
	}
	devs := map[string]Device{"in": NewChanDevice("in", 1), "out": NewChanDevice("out", 1)}
	for _, c := range cases {
		_, err := NewRouter("t", c.src, Options{Devices: devs})
		if err == nil {
			t.Errorf("NewRouter(%q) succeeded, want error ~%q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("NewRouter(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestPushChainCounts(t *testing.T) {
	r := mustRouter(t, `
		in :: Counter;
		mid :: Counter;
		out :: ToDevice(out);
		in -> mid -> out;
	`)
	pushN(t, r, "in", 10)
	if v := readUint(t, r, "in.count"); v != "10" {
		t.Errorf("in.count = %s", v)
	}
	if v := readUint(t, r, "mid.count"); v != "10" {
		t.Errorf("mid.count = %s", v)
	}
	if v := readUint(t, r, "out.count"); v != "10" {
		t.Errorf("out.count = %s", v)
	}
	if v := readUint(t, r, "in.byte_count"); v != "640" {
		t.Errorf("in.byte_count = %s", v)
	}
}

func TestQueueDropsAndLength(t *testing.T) {
	r := mustRouter(t, `
		q :: Queue(5);
		c :: Counter;
		c -> q -> ToDevice(out);
	`)
	pushN(t, r, "c", 8) // driver not running: queue fills to 5, drops 3
	if v := readUint(t, r, "q.length"); v != "5" {
		t.Errorf("q.length = %s", v)
	}
	if v := readUint(t, r, "q.drops"); v != "3" {
		t.Errorf("q.drops = %s", v)
	}
	if v := readUint(t, r, "q.highwater"); v != "5" {
		t.Errorf("q.highwater = %s", v)
	}
}

// TestQueueShrinkDropsTail shrinks a queue below its length through the
// capacity write handler: the packets that no longer fit are tail drops
// (counted, killed), and the oldest survive in order.
func TestQueueShrinkDropsTail(t *testing.T) {
	r := mustRouter(t, `q :: Queue(16); q -> ToDevice(out);`)
	q := r.Element("q").(*queue)
	for i := 0; i < 10; i++ {
		q.Push(0, NewPacket([]byte{byte(i)}))
	}
	if err := r.writeHandler("q.capacity", "4"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "q.length"); v != "4" {
		t.Errorf("q.length = %s, want 4", v)
	}
	if v := readUint(t, r, "q.drops"); v != "6" {
		t.Errorf("q.drops = %s, want 6", v)
	}
	for i := 0; i < 4; i++ {
		p := q.Pull(0)
		if p == nil || p.Data()[0] != byte(i) {
			t.Fatalf("pull %d returned %v, want the packet tagged %d", i, p, i)
		}
	}
	if p := q.Pull(0); p != nil {
		t.Errorf("fifth pull returned a packet, want an empty queue")
	}
}

func TestDriverDrainsQueue(t *testing.T) {
	r := mustRouter(t, `
		FromDevice(in) -> q :: Queue(100);
		sink :: Counter;
		q -> sink -> ToDevice(out);
	`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	in, out := chanDev(r, "in"), chanDev(r, "out")
	for i := 0; i < 50; i++ {
		in.In <- make([]byte, 64)
	}
	for i := 0; i < 50; i++ {
		recvFrame(t, out.Out, "the queue to drain")
	}
	r.Stop()
	if v := readUint(t, r, "sink.count"); v != "50" {
		t.Fatalf("sink.count = %s, want 50", v)
	}
}

func TestFromDeviceToDevice(t *testing.T) {
	in := NewChanDevice("eth0", 64)
	out := NewChanDevice("eth1", 64)
	r, err := NewRouter("vnf", `
		FromDevice(eth0) -> cnt :: Counter -> ToDevice(eth1);
	`, Options{Devices: map[string]Device{"eth0": in, "eth1": out}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	for i := 0; i < 5; i++ {
		in.In <- make([]byte, 60)
	}
	for i := 0; i < 5; i++ {
		select {
		case f := <-out.Out:
			if len(f) != 60 {
				t.Errorf("frame %d len = %d", i, len(f))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
	}
	r.Stop()
	if v := readUint(t, r, "cnt.count"); v != "5" {
		t.Errorf("cnt.count = %s", v)
	}
}

func TestToDevicePullMode(t *testing.T) {
	in := NewChanDevice("eth0", 64)
	out := NewChanDevice("eth1", 64)
	r, err := NewRouter("vnf", `
		FromDevice(eth0) -> Queue(32) -> ToDevice(eth1);
	`, Options{Devices: map[string]Device{"eth0": in, "eth1": out}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	defer r.Stop()
	in.In <- make([]byte, 42)
	select {
	case f := <-out.Out:
		if len(f) != 42 {
			t.Errorf("frame len = %d", len(f))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queue->todevice did not forward")
	}
}

func TestFromDeviceMissingDevice(t *testing.T) {
	_, err := NewRouter("vnf", `FromDevice(nope) -> ToDevice(nope);`, Options{})
	if err == nil || !strings.Contains(err.Error(), "not attached") {
		t.Errorf("err = %v", err)
	}
}

func TestHandlerErrors(t *testing.T) {
	r := mustRouter(t, `c :: Counter; c -> ToDevice(out);`)
	if _, err := r.ReadHandler("nosuch.count"); err == nil {
		t.Error("read of missing element succeeded")
	}
	if _, err := r.ReadHandler("c.nosuch"); err == nil {
		t.Error("read of missing handler succeeded")
	}
	if err := r.writeHandler("c.count", "5"); err == nil {
		t.Error("write to read-only handler succeeded")
	}
	if _, err := r.ReadHandler("c.reset"); err == nil {
		t.Error("read of write-only handler succeeded")
	}
}

func TestBuiltinHandlers(t *testing.T) {
	r := mustRouter(t, `c :: Counter; c -> ToDevice(out);`)
	if v := readUint(t, r, "c.class"); v != "Counter" {
		t.Errorf("class = %s", v)
	}
	if v := readUint(t, r, "c.name"); v != "c" {
		t.Errorf("name = %s", v)
	}
	list, err := r.ReadHandler("list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list, "c\n") {
		t.Errorf("list = %q", list)
	}
	if _, err := r.ReadHandler("version"); err != nil {
		t.Error(err)
	}
}

// readRate reads a Counter rate handler as a number.
func readRate(t *testing.T, r *Router, spec string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(readUint(t, r, spec), 64)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return v
}

// TestCounterRate drives a Counter's period clock by hand: the rate is the
// EWMA (α = 0.5 per 10 ms period) over each period's own count, folded when
// a packet or a read finds the period moved on.
func TestCounterRate(t *testing.T) {
	r := mustRouter(t, `c :: Counter; c -> ToDevice(out);`)
	var clock atomic.Uint64
	r.Element("c").(*counter).period = &clock
	// busy runs periods at 1 000 pps: 10 packets in each.
	busy := func(periods int) {
		for i := 0; i < periods; i++ {
			pushN(t, r, "c", 10)
			clock.Add(1)
		}
	}
	within := func(what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s: rate = %.2f, want %.2f within %.0f%%", what, got, want, 100*tol)
		}
	}

	busy(20)
	within("steady 1 000 pps over 20 periods", readRate(t, r, "c.rate"), 1000, 0.01)
	within("steady bit rate", readRate(t, r, "c.bit_rate"), 1000*64*8, 0.01)

	// One idle second, then 10 busy periods: the first packet closes the
	// idle periods, so the busy ones are not averaged over the whole gap.
	clock.Add(100)
	busy(10)
	woke := readRate(t, r, "c.rate")
	if woke < 990 {
		t.Errorf("10 periods at 1 000 pps after an idle second: rate = %.2f, want ≥ 990", woke)
	}

	// Five idle periods halve it five times; a read alone folds them.
	clock.Add(5)
	within("5 idle periods later", readRate(t, r, "c.rate"), woke/32, 0.001)

	if err := r.writeHandler("c.reset", ""); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "c.rate"); v != "0.00" {
		t.Errorf("rate after reset = %s, want 0.00", v)
	}
	clock.Add(1)
	if v := readUint(t, r, "c.rate"); v != "0.00" {
		t.Errorf("rate a period after reset = %s, want 0.00", v)
	}
}

// TestWriteHandlerChangesRate: a rate written to a running RatedUnqueue
// takes effect at once; a rate that is not a positive number is refused.
func TestWriteHandlerChangesRate(t *testing.T) {
	r := mustRouter(t, `q :: Queue(64) -> ru :: RatedUnqueue(RATE 0.001) -> ToDevice(out);`)
	pushN(t, r, "q", 50)
	go r.Run(context.Background())
	defer r.Stop()
	if err := r.writeHandler("ru.rate", "1000000"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "ru.rate"); v != "1000000" {
		t.Errorf("rate = %s", v)
	}
	for i := 0; i < 50; i++ {
		recvFrame(t, chanDev(r, "out").Out, "packets released at the new rate")
	}
	if err := r.writeHandler("ru.rate", "-3"); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestRouterStopIdempotent(t *testing.T) {
	r := mustRouter(t, `FromDevice(in) -> ToDevice(out);`)
	go r.Run(context.Background())
	go r.Run(context.Background()) // second Run must be a no-op, not a panic
	chanDev(r, "in").In <- make([]byte, 60)
	recvFrame(t, chanDev(r, "out").Out, "the driver to start")
	r.Stop()
	r.Stop() // second stop must not hang or panic
}
