package click

import (
	"context"
	"strconv"
	"testing"
	"time"
)

// mustRouter builds config with ChanDevices "in" and "out" attached; the
// test reaches them through chanDev.
func mustRouter(t testing.TB, config string) *Router {
	t.Helper()
	devs := map[string]Device{"in": NewChanDevice("in", 64), "out": NewChanDevice("out", 64)}
	r, err := NewRouter("t", config, Options{Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// chanDev returns the router's ChanDevice called name.
func chanDev(r *Router, name string) *ChanDevice {
	d, _ := r.device(name)
	return d.(*ChanDevice)
}

// pushN hands n 64-byte packets to input 0 of elem under the element's
// lock, as its upstream neighbour would.
func pushN(t *testing.T, r *Router, elem string, n int) {
	t.Helper()
	e := r.Element(elem)
	if e == nil {
		t.Fatalf("no element %q", elem)
	}
	for i := 0; i < n; i++ {
		e.base().mu.Lock()
		e.Push(0, NewPacket(make([]byte, 64)))
		e.base().mu.Unlock()
	}
}

func TestRatedUnqueueHandlerUpdatesRate(t *testing.T) {
	r := mustRouter(t, `
		FromDevice(in) -> q :: Queue(1000);
		ru :: RatedUnqueue(RATE 10);
		q -> ru -> ToDevice(out);
	`)
	if v := readUint(t, r, "ru.rate"); v != "10" {
		t.Errorf("rate = %s", v)
	}
	if err := r.writeHandler("ru.rate", "5000"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "ru.rate"); v != "5000" {
		t.Errorf("rate after write = %s", v)
	}
	for _, bad := range []string{"zero", "0", "NaN", "+Inf"} {
		if err := r.writeHandler("ru.rate", bad); err == nil {
			t.Errorf("rate %q accepted", bad)
		}
	}
}

func TestQueueCapacityResizePreservesContents(t *testing.T) {
	r := mustRouter(t, `
		FromDevice(in) -> q :: Queue(10);
		q -> ToDevice(out);
	`)
	pushN(t, r, "q", 8)
	if err := r.writeHandler("q.capacity", "4"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "q.length"); v != "4" {
		t.Errorf("length after shrink = %s", v)
	}
	if err := r.writeHandler("q.capacity", "100"); err != nil {
		t.Fatal(err)
	}
	if v := readUint(t, r, "q.length"); v != "4" {
		t.Errorf("length after grow = %s", v)
	}
	// Contents still drain in order.
	q := r.Element("q").(*queue)
	drained := 0
	for q.Pull(0) != nil {
		drained++
	}
	if drained != 4 {
		t.Errorf("drained %d", drained)
	}
}

func TestResolvedProcessingThroughAgnosticChain(t *testing.T) {
	// Queue → Counter → Counter → ToDevice: the pull discipline must
	// propagate through both agnostic counters to ToDevice.
	r := mustRouter(t, `
		FromDevice(in) -> q :: Queue(16);
		a :: Counter; b :: Counter;
		q -> a -> b -> ToDevice(out);
	`)
	ab := r.Element("a").(*counter)
	if got := ab.resolvedIn(0); got != pull {
		t.Errorf("counter resolved to %s, want l", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	defer r.Stop()
	chanDev(r, "in").In <- make([]byte, 9)
	select {
	case f := <-chanDev(r, "out").Out:
		if len(f) != 9 {
			t.Errorf("frame len = %d", len(f))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull chain did not drain")
	}
}

func TestElementConfigString(t *testing.T) {
	r := mustRouter(t, `q :: Queue(5); FromDevice(in) -> q -> ToDevice(out);`)
	v, err := r.ReadHandler("q.config")
	if err != nil || v != "5" {
		t.Errorf("config = %q err=%v", v, err)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n != 5 {
		t.Errorf("config not numeric: %q", v)
	}
}

// TestRouterOwnsFrameDeviceToDevice pins the one-buffer rule through a
// graph: FromDevice wraps the frame a device hands it without copying,
// and ToDevice hands that same buffer to the output device, on a push
// path and through a Queue.
func TestRouterOwnsFrameDeviceToDevice(t *testing.T) {
	for _, config := range []string{
		`FromDevice(in) -> Counter -> ToDevice(out);`,
		`FromDevice(in) -> Queue(16) -> Counter -> ToDevice(out);`,
	} {
		r := mustRouter(t, config)
		ctx, cancel := context.WithCancel(context.Background())
		go r.Run(ctx)
		frame := make([]byte, 60)
		chanDev(r, "in").In <- frame
		select {
		case f := <-chanDev(r, "out").Out:
			if len(f) != len(frame) || &f[0] != &frame[0] {
				t.Errorf("%s: the output device got a copy, want the buffer handed in", config)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s: the frame did not come out", config)
		}
		cancel()
		r.Stop()
	}
}

// TestNewPacketOwnsFrame: NewPacket wraps the frame it is given, so a
// packet drawn from the pool after a Kill holds that frame, not a copy of
// it and not its predecessor's.
func TestNewPacketOwnsFrame(t *testing.T) {
	NewPacket(make([]byte, 64)).Kill()
	frame := make([]byte, 8)
	p := NewPacket(frame)
	defer p.Kill()
	if p.Len() != 8 || &p.Data()[0] != &frame[0] {
		t.Error("NewPacket did not take the frame it was given")
	}
}
