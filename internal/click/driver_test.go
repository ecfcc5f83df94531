package click

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// readCount reads a numeric handler or fails the test. It uses Errorf,
// not Fatalf, because callers invoke it from poller goroutines and
// Fatalf must only run on the test goroutine.
func readCount(t *testing.T, r *Router, spec string) uint64 {
	t.Helper()
	s, err := r.ReadHandler(spec)
	if err != nil {
		t.Errorf("ReadHandler(%s): %v", spec, err)
		return 0
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Errorf("ReadHandler(%s) = %q: %v", spec, s, err)
		return 0
	}
	return n
}

// signal is a pass-through test element that pokes C for every packet, so a
// test can wait for traffic instead of polling counters. It is Fusible: a
// pipeline keeps its shape with one in it.
type signal struct {
	Base
	C chan struct{}
}

func (*signal) Class() string  { return "Signal" }
func (*signal) Spec() PortSpec { return agnostic(1, 1) }
func (s *signal) Configure(*Router, []string) error {
	s.C = make(chan struct{}, 1)
	return nil
}
func (s *signal) SimpleAction(p *Packet) *Packet {
	select {
	case s.C <- struct{}{}:
	default:
	}
	return p
}
func (s *signal) FusedAction(p *Packet) *Packet { return s.SimpleAction(p) }

func init() { RegisterElement("Signal", func() Element { return &signal{} }) }

// waitFor blocks until cond holds, re-evaluating it whenever a packet
// passes the router's Signal element sig and never on a timer. The chains
// under test put sig behind everything cond reads, so the packet that makes
// cond true pokes sig afterwards; a poke that finds the previous one
// unconsumed loses nothing, because that one is still to be consumed.
func waitFor(t *testing.T, d time.Duration, r *Router, sig string, cond func() bool, what string) {
	t.Helper()
	events := r.Element(sig).(*signal).C
	timeout := time.After(d)
	for !cond() {
		select {
		case <-events:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestConcurrentTraffic drives a multi-element chain while external
// goroutines inject packets and poll handlers. Run under -race this
// exercises the per-element locking model: source task, Unqueue task,
// ToDevice drain, handler reads and injected pushes all overlap. Under
// Fused the source and c1 belong to a pipeline, so the injectors target
// c2, which no pipeline owns. Packet conservation is asserted at the end.
func TestConcurrentTraffic(t *testing.T) {
	const limit = 20000
	const injectors = 4
	const perInjector = 500
	const injected = injectors * perInjector

	for _, tc := range []struct {
		mode     DriverMode
		injectAt string
		wantC1   uint64
	}{
		{SingleThreaded, "c1", limit + injected},
		{Fused, "c2", limit},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			out := NewChanDevice("out", 64)
			// Consume out frames forever so ToDevice never stalls.
			go func() {
				for range out.Out {
				}
			}()
			r, err := NewRouter("traffic", fmt.Sprintf(`
				src :: InfiniteSource(LIMIT %d, BURST 32)
					-> c1 :: Counter
					-> q :: Queue(8192)
					-> u :: Unqueue(BURST 16)
					-> c2 :: Counter
					-> sig :: Signal
					-> Queue(8192)
					-> ToDevice(out);
			`, limit), Options{
				Driver:  tc.mode,
				Devices: map[string]Device{"out": out},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go r.Run(ctx)

			var wg sync.WaitGroup
			for i := 0; i < injectors; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					frame := make([]byte, 64)
					for j := 0; j < perInjector; j++ {
						if err := r.InjectPush(tc.injectAt, 0, NewPacket(frame)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			// Handler readers run concurrently with the driver and injectors.
			stopPoll := make(chan struct{})
			var pollWG sync.WaitGroup
			for i := 0; i < 2; i++ {
				pollWG.Add(1)
				go func() {
					defer pollWG.Done()
					for {
						select {
						case <-stopPoll:
							return
						default:
						}
						readCount(t, r, "c1.count")
						readCount(t, r, "q.length")
						readCount(t, r, "c2.count")
					}
				}()
			}
			wg.Wait()

			const total = limit + injected
			waitFor(t, 20*time.Second, r, "sig", func() bool {
				return readCount(t, r, "c1.count") == tc.wantC1 &&
					readCount(t, r, "c2.count")+readCount(t, r, "q.drops") == total
			}, "all packets to clear the chain")
			close(stopPoll)
			pollWG.Wait()
			cancel()
			r.Stop()

			if got := readCount(t, r, "c1.count"); got != tc.wantC1 {
				t.Errorf("c1.count = %d, want %d", got, tc.wantC1)
			}
			if c2, drops := readCount(t, r, "c2.count"), readCount(t, r, "q.drops"); c2+drops != total {
				t.Errorf("conservation: c2.count(%d) + q.drops(%d) = %d, want %d", c2, drops, c2+drops, total)
			}
		})
	}
}

// TestDriverEquivalence runs the same source→queue→sink chain under both
// drivers and asserts packet conservation: every generated packet is
// either delivered or accounted as a queue tail drop. Under Fused the
// source is a pipeline feeding the ring Queue and the Unqueue is a
// leftover task on the shared loop, so the pipeline can outrun the drain
// side and legitimately drop. When the queue can hold the whole source no
// driver may drop at all.
func TestDriverEquivalence(t *testing.T) {
	for _, mode := range []DriverMode{SingleThreaded, Fused} {
		for _, tc := range []struct{ limit, qcap uint64 }{{5000, 1024}, {200, 500}} {
			t.Run(fmt.Sprintf("%s/%d-through-%d", mode, tc.limit, tc.qcap), func(t *testing.T) {
				r, err := NewRouter("eq-"+mode.String(), fmt.Sprintf(`
					InfiniteSource(LIMIT %d) -> q :: Queue(%d) -> u :: Unqueue -> d :: Counter -> sig :: Signal -> Discard;
				`, tc.limit, tc.qcap), Options{Driver: mode})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go r.Run(ctx)
				waitFor(t, 20*time.Second, r, "sig", func() bool {
					return readCount(t, r, "d.count")+readCount(t, r, "q.drops") == tc.limit
				}, mode.String()+" to account for all packets")
				if mode == SingleThreaded || tc.qcap >= tc.limit {
					// The round-robin driver strictly interleaves source
					// and drain tasks, so the queue never overflows; a
					// queue as large as the source cannot overflow under
					// any driver.
					if drops := readCount(t, r, "q.drops"); drops != 0 {
						t.Errorf("%s dropped %d packets", mode, drops)
					}
				}
				cancel()
				r.Stop()
			})
		}
	}
}

// TestFusedFullyFusedTicksAndStops builds a router the compiler fuses
// completely: the Run goroutine has no task to run, yet it must still
// deliver ticks (the Counter's rate estimate moves) and notice
// cancellation without waiting on traffic.
func TestFusedFullyFusedTicksAndStops(t *testing.T) {
	dev := NewRingDevice("dev", 1024)
	r, err := NewRouter("allfused", `FromDevice(dev) -> c :: Counter -> sig :: Signal -> Discard;`, Options{
		Driver:  Fused,
		Devices: map[string]Device{"dev": dev},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.fused) != 1 || len(r.fusedLeftover) != 0 {
		t.Fatalf("got %d pipelines and %d leftover tasks, want 1 and 0", len(r.fused), len(r.fusedLeftover))
	}
	go r.Run(context.Background())
	// A non-zero rate needs two ticks with traffic counted in between:
	// feed a frame, wait for it to pass, look again.
	waitFor(t, 10*time.Second, r, "sig", func() bool {
		dev.In.Enqueue(make([]byte, 64))
		return readUint(t, r, "c.rate") != "0.00"
	}, "a tick to update c.rate")

	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
}

// TestFusedLeftoverAndPipelineProgress runs a fused pipeline next to a
// task the compiler leaves on the locked path (RatedSource is no fused
// source): the shared task loop and the pipeline goroutine must both
// move packets while the other still has work.
func TestFusedLeftoverAndPipelineProgress(t *testing.T) {
	const limit = 1000
	dev := NewRingDevice("dev", 1024)
	r, err := NewRouter("mixed", fmt.Sprintf(`
		FromDevice(dev) -> pc :: Counter -> psig :: Signal -> Discard;
		RatedSource(RATE 5000, LIMIT %d) -> lc :: Counter -> lsig :: Signal -> Discard;
	`, limit), Options{
		Driver:  Fused,
		Devices: map[string]Device{"dev": dev},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.fused) != 1 || len(r.fusedLeftover) != 1 {
		t.Fatalf("got %d pipelines and %d leftover tasks, want 1 and 1", len(r.fused), len(r.fusedLeftover))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)

	var fed uint64
	overlapped := false
	waitFor(t, 20*time.Second, r, "lsig", func() bool {
		if dev.In.Enqueue(make([]byte, 64)) {
			fed++
		}
		lc, pc := readCount(t, r, "lc.count"), readCount(t, r, "pc.count")
		if pc > 0 && lc > 0 && lc < limit {
			overlapped = true
		}
		return lc == limit
	}, "the leftover source to finish")
	waitFor(t, 10*time.Second, r, "psig", func() bool {
		return readCount(t, r, "pc.count") == fed
	}, "the pipeline to drain what it was fed")
	if !overlapped {
		t.Error("pipeline counted nothing while the leftover task was still running")
	}
	cancel()
	r.Stop()
}
