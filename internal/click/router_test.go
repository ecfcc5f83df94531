package click

import (
	"context"
	"strings"
	"testing"
	"time"
)

// pushN injects n 64-byte packets into elem input 0.
func pushN(t *testing.T, r *Router, elem string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.InjectPush(elem, 0, NewPacket(make([]byte, 64))); err != nil {
			t.Fatal(err)
		}
	}
}

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
		{"s :: InfiniteSource; d :: Discard; s -> d; s -> d;", "connected twice"},
		{"s :: InfiniteSource; q :: Queue; s -> q[0]; q -> Discard; Idle -> q;", "connected twice"},
		{"s :: InfiniteSource; d :: Discard; s[3] -> d;", "output port"},
		{"q :: Queue(0); InfiniteSource -> q -> Unqueue -> Discard;", "capacity"},
		{"q :: Queue(1048577); InfiniteSource -> q -> Unqueue -> Discard;", "out of range"},
		{"q :: Queue(99999999999); InfiniteSource -> q -> Unqueue -> Discard;", "out of range"},
		{"InfiniteSource(LENGTH -1) -> Discard;", "LENGTH -1 out of range"},
		{"RatedSource(LENGTH 99999999999) -> Discard;", "out of range"},
		{"InfiniteSource -> s :: Switch(999999999999); s[0] -> Discard;", "at most"},
		// push output directly into pull input
		{"s :: InfiniteSource; u :: Unqueue; s -> u; u -> Discard;", "push/pull conflict"},
	}
	for _, c := range cases {
		_, err := NewRouter("t", c.src, Options{})
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
	r, err := NewRouter("t", `
		in :: Counter;
		mid :: Counter;
		out :: Discard;
		in -> mid -> out;
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := NewRouter("t", `
		q :: Queue(5);
		c :: Counter;
		c -> q -> Unqueue -> Discard;
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := NewRouter("t", `q :: Queue(16); q -> Unqueue -> Discard;`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.InjectPush("q", 0, NewPacket([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.WriteHandler("q.capacity", "4"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "q.length"); v != "4" {
		t.Errorf("q.length = %s, want 4", v)
	}
	if v := readUint(t, r, "q.drops"); v != "6" {
		t.Errorf("q.drops = %s, want 6", v)
	}
	q := r.Element("q").(*Queue)
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
	out := NewChanDevice("out", 64)
	r, err := NewRouter("t", `
		q :: Queue(100);
		sink :: Counter;
		q -> Unqueue -> sink -> ToDevice(out);
	`, Options{Devices: map[string]Device{"out": out}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	pushN(t, r, "q", 50)
	for i := 0; i < 50; i++ {
		recvFrame(t, out.Out, "the queue to drain")
	}
	r.Stop()
	if v := readUint(t, r, "sink.count"); v != "50" {
		t.Fatalf("sink.count = %s, want 50", v)
	}
}

func TestInfiniteSourceLimit(t *testing.T) {
	out := NewChanDevice("out", 128)
	r, err := NewRouter("t", `
		src :: InfiniteSource(LIMIT 100, BURST 7);
		c :: Counter;
		src -> c -> ToDevice(out);
	`, Options{Devices: map[string]Device{"out": out}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	for i := 0; i < 100; i++ {
		recvFrame(t, out.Out, "the source to reach its limit")
	}
	r.Stop()
	// Stop returned, so the count is final: the limit held.
	if v := readUint(t, r, "c.count"); v != "100" {
		t.Fatalf("c.count = %s, want 100", v)
	}
}

func TestRatedSourceApproximatesRate(t *testing.T) {
	r, err := NewRouter("t", `
		src :: RatedSource(RATE 2000, LENGTH 100);
		c :: Counter;
		src -> c -> Discard;
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	// The sleep is the assertion: it is the window the rate is read over.
	time.Sleep(500 * time.Millisecond)
	r.Stop()
	v := readUint(t, r, "c.count")
	var n int
	if _, err := parseInt(v, &n); err != nil {
		t.Fatalf("count = %q", v)
	}
	// 2000 pps for 0.5 s ≈ 1000 packets; accept a wide band (CI jitter).
	if n < 500 || n > 1500 {
		t.Errorf("count = %d, want ≈1000", n)
	}
}

func parseInt(s string, out *int) (int, error) {
	var n int
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, &ParseError{Msg: "not a number: " + s}
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
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
	_, err := NewRouter("vnf", `FromDevice(nope) -> Discard;`, Options{})
	if err == nil || !strings.Contains(err.Error(), "not attached") {
		t.Errorf("err = %v", err)
	}
}

func TestHandlerErrors(t *testing.T) {
	r, err := NewRouter("t", `c :: Counter; c -> Discard;`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadHandler("nosuch.count"); err == nil {
		t.Error("read of missing element succeeded")
	}
	if _, err := r.ReadHandler("c.nosuch"); err == nil {
		t.Error("read of missing handler succeeded")
	}
	if err := r.WriteHandler("c.count", "5"); err == nil {
		t.Error("write to read-only handler succeeded")
	}
	if _, err := r.ReadHandler("c.reset"); err == nil {
		t.Error("read of write-only handler succeeded")
	}
}

func TestBuiltinHandlers(t *testing.T) {
	r, err := NewRouter("t", `c :: Counter; c -> Discard;`, Options{})
	if err != nil {
		t.Fatal(err)
	}
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

func TestCounterRateTick(t *testing.T) {
	r, err := NewRouter("t", `c :: Counter; c -> Discard;`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pushN(t, r, "c", 100)
	now := time.Now()
	r.tick(now)
	pushN(t, r, "c", 100)
	r.tick(now.Add(100 * time.Millisecond)) // 100 pkts / 0.1s = 1000 pps inst
	v := readUint(t, r, "c.rate")
	if !strings.HasPrefix(v, "5") { // EWMA 0.5*0 + 0.5*1000 = 500
		t.Errorf("rate = %s, want ≈500", v)
	}
}

func TestWriteHandlerChangesRate(t *testing.T) {
	r, err := NewRouter("t", `src :: RatedSource(RATE 10); src -> Discard;`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteHandler("src.rate", "9999"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "src.rate"); v != "9999" {
		t.Errorf("rate = %s", v)
	}
	if err := r.WriteHandler("src.rate", "-3"); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestRouterStopIdempotent(t *testing.T) {
	out := NewChanDevice("out", 1)
	r, err := NewRouter("t", `InfiniteSource(LIMIT 1) -> ToDevice(out);`, Options{Devices: map[string]Device{"out": out}})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run(context.Background())
	recvFrame(t, out.Out, "the driver to start")
	r.Stop()
	r.Stop() // second stop must not hang or panic
}

func TestElementClassesSorted(t *testing.T) {
	classes := ElementClasses()
	if len(classes) < 20 {
		t.Fatalf("only %d element classes registered", len(classes))
	}
	for i := 1; i < len(classes); i++ {
		if classes[i-1] >= classes[i] {
			t.Fatalf("classes not sorted/unique at %d: %s >= %s", i, classes[i-1], classes[i])
		}
	}
	for _, want := range []string{"Queue", "Counter", "Classifier", "FromDevice", "ToDevice"} {
		found := false
		for _, c := range classes {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("class %s not registered", want)
		}
	}
}
