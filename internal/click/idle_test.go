package click

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the driver's idle state (idle.go). They are built to hold on a
// loaded machine, where any one wait can be stretched by tens of
// milliseconds: they count rounds, count how many of many events were slow,
// and read rates off the packets that were least late — they never time a
// single event. A driver that polls, or that loses a wake-up and is rescued
// by the 10 ms tick, fails them by a factor, not by a margin.

// idleProbe is a task that never has work. It counts the rounds the driver
// runs and the ticks it delivers, so a test can tell a blocked driver from
// a polling one without timing anything.
type idleProbe struct {
	Base
	runs, ticks atomic.Int64
}

func (*idleProbe) Class() string  { return "IdleProbe" }
func (*idleProbe) Spec() PortSpec { return pushPorts(0, 0) }
func (p *idleProbe) RunTask() bool {
	p.runs.Add(1)
	return false
}
func (p *idleProbe) Tick(time.Time) { p.ticks.Add(1) }

// writeSource is a test source that emits one packet per write to its
// emit handler: work a handler write, and nothing else, creates.
type writeSource struct {
	Base
	pending int
}

func (*writeSource) Class() string  { return "WriteSource" }
func (*writeSource) Spec() PortSpec { return pushPorts(0, 1) }
func (s *writeSource) RunTask() bool {
	if s.pending == 0 {
		return false
	}
	s.pending--
	s.PushOut(0, NewPacket(make([]byte, 60)))
	return true
}
func (s *writeSource) Handlers() []Handler {
	return []Handler{{Name: "emit", Write: func(string) error { s.pending++; return nil }}}
}

func init() {
	RegisterElement("IdleProbe", func() Element { return &idleProbe{} })
	RegisterElement("WriteSource", func() Element { return &writeSource{} })
}

func buildRouter(t *testing.T, config string, devs ...Device) *Router {
	t.Helper()
	m := map[string]Device{}
	for _, d := range devs {
		m[d.DeviceName()] = d
	}
	r, err := NewRouter("idle", config, Options{Devices: m})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// startRouter builds and runs a router and stops it with the test.
func startRouter(t *testing.T, config string, devs ...Device) *Router {
	t.Helper()
	r := buildRouter(t, config, devs...)
	go r.Run(context.Background())
	t.Cleanup(r.Stop)
	return r
}

func recvFrame(t *testing.T, ch <-chan []byte, what string) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// slowAfter is the line between an event a blocked driver delivered and one
// that waited for the tick: a tick-rescue takes a whole tickInterval when
// the previous event returned right after a tick, and three quarters of
// them take longer than this wherever in the period they start.
const slowAfter = tickInterval / 4

// promptly runs event n times, each of which must block until its effect is
// visible, and fails if more than maxSlow of them were slow. Counting, not
// summing, keeps one long stall of the machine from failing the test.
func promptly(t *testing.T, n, maxSlow int, event func(i int)) {
	t.Helper()
	slow := 0
	for i := 0; i < n; i++ {
		start := time.Now()
		event(i)
		if time.Since(start) > slowAfter {
			slow++
		}
	}
	if slow > maxSlow {
		t.Errorf("%d of %d wake-ups took over %v, want at most %d: the driver is waiting for its tick", slow, n, slowAfter, maxSlow)
	}
}

// TestIdleDriverBlocks: with nothing arriving the driver runs about one
// round per tick, and Stop from the parked state does not wait for one.
func TestIdleDriverBlocks(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		const routers = 5
		var rs []*Router
		for i := 0; i < routers; i++ {
			r := buildRouter(t, `probe :: IdleProbe; FromDevice(in) -> ToDevice(out);`, NewChanDevice("in", 8), NewChanDevice("out", 8))
			go r.Run(context.Background())
			rs = append(rs, r)
		}
		// The sleep is the assertion: 200 ms in which nothing happens.
		time.Sleep(200 * time.Millisecond)
		stops := make([]time.Duration, routers)
		for i, r := range rs {
			probe := r.Element("probe").(*idleProbe)
			if runs, ticks := probe.runs.Load(), probe.ticks.Load(); runs > ticks+4 || ticks < 5 {
				t.Errorf("idle driver ran %d rounds over %d ticks in 200 ms, want about one round per tick", runs, ticks)
			}
			start := time.Now()
			r.Stop()
			stops[i] = time.Since(start)
		}
		sort.Slice(stops, func(i, j int) bool { return stops[i] < stops[j] })
		if med := stops[routers/2]; med > slowAfter {
			t.Errorf("Stop from the parked state took %v (median of %v)", med, stops)
		}
	})
}

// TestIdleWakeSources: everything that can hand a parked driver work wakes
// it, without the tick.
func TestIdleWakeSources(t *testing.T) {
	const n, maxSlow = 40, 4
	frame := make([]byte, 60)
	t.Run("single/device-channel", func(t *testing.T) {
		in, out := NewChanDevice("in", 8), NewChanDevice("out", 8)
		startRouter(t, `FromDevice(in) -> ToDevice(out);`, in, out)
		promptly(t, n, maxSlow, func(int) {
			in.In <- frame
			recvFrame(t, out.Out, "forwarded frame")
		})
	})
	t.Run("single/handler-write", func(t *testing.T) {
		out := NewChanDevice("out", 8)
		r := startRouter(t, `src :: WriteSource -> ToDevice(out);`, out)
		promptly(t, n, maxSlow, func(int) {
			if err := r.WriteHandler("src.emit", ""); err != nil {
				t.Fatal(err)
			}
			recvFrame(t, out.Out, "packet after the write")
		})
	})
}

// spinFor busy-waits, yielding, so that pauses far below the timer
// granularity are real.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// TestIdleNoLostWakeup aims frames at the instant a driver parks: each
// round sends one frame, which the driver forwards and then finds nothing
// more to do, and a second one a random few microseconds later, while the
// driver is somewhere between its last empty round and its select. Nothing
// follows until both came out, so a second frame whose wake-up was lost is
// rescued by the tick alone. All frames must come out in order. One slow
// round in fifty is allowed for: a 2-vCPU machine shared with other test
// binaries delays about one goroutine hand-off in a hundred that much.
func TestIdleNoLostWakeup(t *testing.T) {
	const n = 1000
	t.Run("single/chan", func(t *testing.T) {
		in, out := NewChanDevice("in", 8), NewChanDevice("out", 8)
		startRouter(t, `FromDevice(in) -> ToDevice(out);`, in, out)
		send := func(seq int) { in.In <- []byte{byte(seq >> 8), byte(seq)} }
		rng := rand.New(rand.NewSource(1))
		promptly(t, n, n/50, func(i int) {
			send(2 * i)
			spinFor(time.Duration(rng.Intn(10000)) * time.Nanosecond)
			send(2*i + 1)
			for seq := 2 * i; seq <= 2*i+1; seq++ {
				f := recvFrame(t, out.Out, fmt.Sprintf("frame %d", seq))
				if got := int(f[0])<<8 | int(f[1]); got != seq {
					t.Fatalf("frame %d came out as %d", seq, got)
				}
			}
		})
	})
}

// TestIdleManyIngressDevices: a router with as many ingress devices as the
// park select names serves every one of them, in order; one more is
// refused at construction.
func TestIdleManyIngressDevices(t *testing.T) {
	config := func(n int) (string, []Device, []*ChanDevice, []*ChanDevice) {
		var cfg strings.Builder
		var all []Device
		var ins, outs []*ChanDevice
		for i := 0; i < n; i++ {
			in, out := NewChanDevice(fmt.Sprintf("in%d", i), 8), NewChanDevice(fmt.Sprintf("out%d", i), 8)
			ins, outs = append(ins, in), append(outs, out)
			all = append(all, in, out)
			fmt.Fprintf(&cfg, "FromDevice(in%d) -> ToDevice(out%d);\n", i, i)
		}
		return cfg.String(), all, ins, outs
	}
	t.Run("single", func(t *testing.T) {
		const devs = parkArity
		cfg, all, ins, outs := config(devs)
		startRouter(t, cfg, all...)
		promptly(t, 10*devs, devs, func(i int) {
			d := i % devs
			ins[d].In <- []byte{byte(i)}
			if f := recvFrame(t, outs[d].Out, fmt.Sprintf("frame on device %d", d)); f[0] != byte(i) {
				t.Fatalf("device %d forwarded frame %d, want %d", d, f[0], i)
			}
		})
	})
	t.Run("refused", func(t *testing.T) {
		cfg, all, _, _ := config(parkArity + 1)
		m := map[string]Device{}
		for _, d := range all {
			m[d.DeviceName()] = d
		}
		_, err := NewRouter("many", cfg, Options{Devices: m})
		if want := fmt.Sprintf("more than %d FromDevice", parkArity); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("NewRouter with %d FromDevices: err = %v, want one naming the limit (%q)", parkArity+1, err, want)
		}
	})
}

// collect receives n frames and returns the arrival time of each. The tick
// bounds what any fault of the driver can add to a wait at tickInterval, so
// a gap of five of them is the machine, stalled for longer than half the
// 100 ms of burst the elements under test may hold: whatever the arrivals
// then show is not their rate, and the test is skipped as inconclusive.
func collect(t *testing.T, ch <-chan []byte, n int) []time.Time {
	t.Helper()
	at := make([]time.Time, n)
	for i := range at {
		recvFrame(t, ch, fmt.Sprintf("packet %d of %d", i, n))
		at[i] = time.Now()
		if i > 0 && at[i].Sub(at[i-1]) > 5*tickInterval {
			t.Skipf("machine stalled %v before packet %d: inconclusive", at[i].Sub(at[i-1]), i)
		}
	}
	return at
}

// slack is how late, at best, one of the packets at[lo:hi] arrived against
// a flow of one packet per period through at[0]. A time-gated element never
// releases early, and a stall — of the driver or of the collecting test —
// only makes arrivals late, so the minimum over a window is the element's
// own schedule.
func slack(at []time.Time, lo, hi int, period time.Duration) time.Duration {
	min := time.Duration(1 << 62)
	for i := lo; i < hi; i++ {
		if s := at[i].Sub(at[0]) - time.Duration(i)*period; s < min {
			min = s
		}
	}
	return min
}

// assertOnSchedule checks that at[from:] ran at one packet per period: at
// that rate its two halves are equally late, and a quarter off the rate
// shifts the second half by a quarter of its length.
func assertOnSchedule(t *testing.T, at []time.Time, from int, period time.Duration) {
	t.Helper()
	half := (len(at) - from) / 2
	drift := slack(at, from+half, len(at), period) - slack(at, from, from+half, period)
	if limit := time.Duration(half) * period / 4; drift < -limit || drift > limit {
		t.Errorf("packets %d–%d ran %v off the schedule of packets %d–%d at one per %v, want within %v",
			from+half, len(at)-1, drift, from, from+half-1, period, limit)
	}
}

// assertNotOnTick fails if at[from:] left in per-tick bursts. Packets one
// wake-up releases arrive microseconds apart; the longer gaps are the
// waits between wake-ups, a tickInterval each when the tick drives them
// and the element's own period when deadlines do. The median ignores the
// gaps a stalled machine adds.
func assertNotOnTick(t *testing.T, at []time.Time, from int) {
	t.Helper()
	var waits []time.Duration
	for i := from + 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap > 100*time.Microsecond {
			waits = append(waits, gap)
		}
	}
	if len(waits) == 0 {
		t.Fatalf("packets %d–%d arrived in one burst", from, len(at)-1)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[len(waits)/2]; med > tickInterval/2 {
		t.Errorf("median wait between releases is %v over %d wake-ups: packets leave on the tick, not on their deadlines", med, len(waits))
	}
}

// assertNoSpin bounds the rounds a driver ran while it released packets on
// deadlines: each wake-up is one round that works and one that finds
// nothing and parks, plus a round per tick.
func assertNoSpin(t *testing.T, probe *idleProbe, packets int64) {
	t.Helper()
	if runs, max := probe.runs.Load(), 2*packets+probe.ticks.Load()+8; runs > max {
		t.Errorf("%d rounds for %d packets, want at most %d: the driver is spinning", runs, packets, max)
	}
}

// TestDeadlineShapers: a backlog behind RatedUnqueue drains at the
// configured rate, packet by packet rather than in per-tick bursts, and
// without spinning. The bucket may hold 100 ms of burst, so everything is
// read over the packets after the first 200.
func TestDeadlineShapers(t *testing.T) {
	const backlog, burst = 400, 200
	t.Run("single/rated-unqueue", func(t *testing.T) {
		out := NewChanDevice("out", backlog) // holds the initial burst: a full device drops
		r := buildRouter(t, `probe :: IdleProbe; q :: Queue(1000) -> RatedUnqueue(RATE 2000) -> ToDevice(out);`, out)
		probe := r.Element("probe").(*idleProbe)
		// Queued before Run, so no wake-up inflates the round count.
		q := r.Element("q").(*Queue)
		for i := 0; i < backlog; i++ {
			q.Push(0, NewPacket(make([]byte, 1000)))
		}
		go r.Run(context.Background())
		defer r.Stop()
		at := collect(t, out.Out, backlog)
		assertOnSchedule(t, at, burst, time.Second/2000)
		assertNotOnTick(t, at, burst)
		assertNoSpin(t, probe, backlog)
	})
}
