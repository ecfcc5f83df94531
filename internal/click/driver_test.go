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
// test can wait for traffic instead of polling counters.
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
// goroutines feed its device and poll handlers. Run under -race this
// exercises the per-element locking model: the FromDevice, RatedUnqueue
// and ToDevice tasks, handler reads and device senders all overlap. Packet
// conservation is asserted at the end.
func TestConcurrentTraffic(t *testing.T) {
	const senders = 5
	const perSender = 4400
	const total = senders * perSender

	t.Run("single", func(t *testing.T) {
		in, out := NewChanDevice("in", 256), NewChanDevice("out", 64)
		// Consume out frames forever so ToDevice never stalls.
		go func() {
			for range out.Out {
			}
		}()
		r, err := NewRouter("traffic", `
			FromDevice(in)
				-> c1 :: Counter
				-> q :: Queue(8192)
				-> u :: RatedUnqueue(RATE 1000000000)
				-> c2 :: Counter
				-> sig :: Signal
				-> Queue(8192)
				-> ToDevice(out);
		`, Options{Devices: map[string]Device{"in": in, "out": out}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go r.Run(ctx)

		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				frame := make([]byte, 64)
				for j := 0; j < perSender; j++ {
					in.In <- frame
				}
			}()
		}
		// Handler readers run concurrently with the driver and senders.
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

		waitFor(t, 20*time.Second, r, "sig", func() bool {
			return readCount(t, r, "c1.count") == total &&
				readCount(t, r, "c2.count")+readCount(t, r, "q.drops") == total
		}, "all packets to clear the chain")
		close(stopPoll)
		pollWG.Wait()
		cancel()
		r.Stop()

		if got := readCount(t, r, "c1.count"); got != total {
			t.Errorf("c1.count = %d, want %d", got, total)
		}
		if c2, drops := readCount(t, r, "c2.count"), readCount(t, r, "q.drops"); c2+drops != total {
			t.Errorf("conservation: c2.count(%d) + q.drops(%d) = %d, want %d", c2, drops, c2+drops, total)
		}
	})
}

// TestDriverEquivalence runs a device→queue→device chain and asserts packet
// conservation: every frame sent is either delivered or accounted as a
// queue tail drop — and, because the round-robin driver strictly
// interleaves the FromDevice and ToDevice tasks, each moving at most a
// burst per round, none is dropped.
func TestDriverEquivalence(t *testing.T) {
	for _, tc := range []struct{ limit, qcap uint64 }{{5000, 1024}, {200, 500}} {
		t.Run(fmt.Sprintf("single/%d-through-%d", tc.limit, tc.qcap), func(t *testing.T) {
			in, out := NewChanDevice("in", 64), NewChanDevice("out", 64)
			go func() {
				for range out.Out {
				}
			}()
			r, err := NewRouter("eq", fmt.Sprintf(`
				FromDevice(in) -> q :: Queue(%d) -> d :: Counter -> sig :: Signal -> ToDevice(out);
			`, tc.qcap), Options{Devices: map[string]Device{"in": in, "out": out}})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go r.Run(ctx)
			frame := make([]byte, 64)
			for i := uint64(0); i < tc.limit; i++ {
				in.In <- frame
			}
			waitFor(t, 20*time.Second, r, "sig", func() bool {
				return readCount(t, r, "d.count")+readCount(t, r, "q.drops") == tc.limit
			}, "all packets to be accounted for")
			if drops := readCount(t, r, "q.drops"); drops != 0 {
				t.Errorf("dropped %d packets", drops)
			}
			cancel()
			r.Stop()
		})
	}
}
