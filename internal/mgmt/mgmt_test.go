package mgmt

import (
	"context"
	"strings"
	"testing"
	"time"

	"escape/internal/click"
)

// newVNF builds a Click router with a counter, a rate limiter and a
// control socket, with its in and out devices.
func newVNF(t *testing.T, name string) (*click.Router, *chanDevice, *chanDevice, string) {
	t.Helper()
	in, out := newChanDevice("in", 16), newChanDevice("out", 16)
	r, err := click.NewRouter(name, `FromDevice(in) -> c :: Counter -> Queue(16) -> shaper :: RatedUnqueue(RATE 100) -> ToDevice(out);`,
		click.Options{Devices: map[string]click.Device{"in": in, "out": out}})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := click.NewControlSocket(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return r, in, out, cs.Addr().String()
}

func TestMonitorPollsHandlers(t *testing.T) {
	r, in, out, addr := newVNF(t, "vnf1")
	m := NewMonitor(10*time.Millisecond, 5)
	m.Add(Target{Name: "svc/nf1", Control: addr, Handlers: []string{"c.count", "c.byte_count"}})
	m.PollOnce()
	s, ok := latest(m, "svc/nf1", "c.count")
	if !ok || s.Err != nil || s.Value != "0" {
		t.Fatalf("sample = %+v ok=%v", s, ok)
	}
	// Forward traffic, poll again: value moves.
	go r.Run(context.Background())
	t.Cleanup(r.Stop)
	for i := 0; i < 7; i++ {
		in.In <- make([]byte, 10)
		select {
		case <-out.Out:
		case <-time.After(5 * time.Second):
			t.Fatal("frame not forwarded")
		}
	}
	m.PollOnce()
	s, _ = latest(m, "svc/nf1", "c.count")
	if s.Value != "7" {
		t.Errorf("count = %q", s.Value)
	}
	if h := history(m, "svc/nf1", "c.count"); len(h) != 2 {
		t.Errorf("history = %d samples", len(h))
	}
	m.Stop() // never started: must not hang
}

func TestMonitorHistoryBounded(t *testing.T) {
	_, _, _, addr := newVNF(t, "vnf1")
	m := NewMonitor(time.Hour, 3)
	m.Add(Target{Name: "x", Control: addr, Handlers: []string{"c.count"}})
	for i := 0; i < 10; i++ {
		m.PollOnce()
	}
	if h := history(m, "x", "c.count"); len(h) != 3 {
		t.Errorf("history = %d, want 3", len(h))
	}
}

func TestMonitorBackgroundLoop(t *testing.T) {
	_, _, _, addr := newVNF(t, "vnf1")
	m := NewMonitor(5*time.Millisecond, 100)
	m.Add(Target{Name: "bg", Control: addr, Handlers: []string{"c.count"}})
	m.Start()
	time.Sleep(60 * time.Millisecond)
	m.Stop()
	h := history(m, "bg", "c.count")
	if len(h) < 3 {
		t.Errorf("background loop took %d samples", len(h))
	}
	// Stop is idempotent.
	m.Stop()
}

func TestMonitorDashboard(t *testing.T) {
	_, _, _, addr := newVNF(t, "vnf1")
	m := NewMonitor(time.Hour, 5)
	m.Add(Target{Name: "svc/nf1", Control: addr, Handlers: []string{"c.count", "shaper.rate"}})
	m.PollOnce()
	dash := m.Dashboard()
	for _, want := range []string{"VNF HANDLER", "svc/nf1 c.count", "svc/nf1 shaper.rate", "100"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q:\n%s", want, dash)
		}
	}
}

func TestMonitorUnreachableTarget(t *testing.T) {
	m := NewMonitor(time.Hour, 5)
	m.Add(Target{Name: "dead", Control: "127.0.0.1:1", Handlers: []string{"c.count"}})
	m.PollOnce()
	s, ok := latest(m, "dead", "c.count")
	if !ok {
		t.Fatal("no sample recorded for dead target")
	}
	if s.Err == nil {
		t.Error("no error recorded for dead target")
	}
	if !strings.Contains(m.Dashboard(), "ERR") {
		t.Error("dashboard does not surface the error")
	}
}

func TestMonitorBadHandler(t *testing.T) {
	_, _, _, addr := newVNF(t, "vnf1")
	m := NewMonitor(time.Hour, 5)
	m.Add(Target{Name: "x", Control: addr, Handlers: []string{"c.nosuch"}})
	m.PollOnce()
	s, _ := latest(m, "x", "c.nosuch")
	if s.Err == nil {
		t.Error("bad handler produced no error")
	}
	// The monitor recovers: add a good handler and poll again.
	m.Add(Target{Name: "x", Control: addr, Handlers: []string{"c.count"}})
	m.PollOnce()
	if s, _ := latest(m, "x", "c.count"); s.Err != nil {
		t.Errorf("recovery poll failed: %v", s.Err)
	}
}

// chanDevice is an in-memory click.Device: a test feeds In and reads Out.
type chanDevice struct {
	name    string
	In, Out chan []byte
}

func newChanDevice(name string, depth int) *chanDevice {
	return &chanDevice{name: name, In: make(chan []byte, depth), Out: make(chan []byte, depth)}
}

func (d *chanDevice) DeviceName() string { return d.name }

// Send drops when Out is full, as a full NIC ring does.
func (d *chanDevice) Send(frame []byte) error {
	select {
	case d.Out <- frame:
		return nil
	default:
		return click.ErrDeviceFull
	}
}

func (d *chanDevice) Recv() <-chan []byte { return d.In }

// history returns the retained samples for a key, oldest first.
func history(m *Monitor, name, handler string) []sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]sample(nil), m.series[name+" "+handler]...)
}

// latest returns the most recent sample for a key.
func latest(m *Monitor, name, handler string) (sample, bool) {
	h := history(m, name, handler)
	if len(h) == 0 {
		return sample{}, false
	}
	return h[len(h)-1], true
}
