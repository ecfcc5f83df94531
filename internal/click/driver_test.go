package click

import (
	"context"
	"fmt"
	"runtime"
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

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMultiThreadedConcurrentTraffic drives a multi-element chain under the
// MultiThreaded driver while external goroutines inject packets and poll
// handlers. Run under -race this exercises the per-element locking model:
// source task, Unqueue task, ToDevice drain, handler reads and injected
// pushes all overlap. Packet conservation is asserted at the end.
func TestMultiThreadedConcurrentTraffic(t *testing.T) {
	const limit = 20000
	const injectors = 4
	const perInjector = 500

	out := NewChanDevice("out", 64)
	// Consume out frames forever so ToDevice never stalls.
	go func() {
		for range out.Out {
		}
	}()
	r, err := NewRouter("mt", fmt.Sprintf(`
		src :: InfiniteSource(LIMIT %d, BURST 32)
			-> c1 :: Counter
			-> q :: Queue(8192)
			-> u :: Unqueue(BURST 16)
			-> c2 :: Counter
			-> Queue(8192)
			-> ToDevice(out);
	`, limit), Options{
		Driver:  MultiThreaded,
		Workers: 4,
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
				if err := r.InjectPush("c1", 0, NewPacket(frame)); err != nil {
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

	total := uint64(limit + injectors*perInjector)
	waitFor(t, 20*time.Second, func() bool {
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
}

// TestDriverEquivalence runs the same source→queue→sink chain under
// every task-scheduling driver and asserts packet conservation: every
// generated packet is either delivered or accounted as a queue tail drop
// (a concurrent driver can outrun the drain side and legitimately drop).
// When the queue can hold the whole source no driver may drop at all.
func TestDriverEquivalence(t *testing.T) {
	for _, mode := range []DriverMode{SingleThreaded, MultiThreaded} {
		for _, tc := range []struct{ limit, qcap uint64 }{{5000, 1024}, {200, 500}} {
			t.Run(fmt.Sprintf("%s/%d-through-%d", mode, tc.limit, tc.qcap), func(t *testing.T) {
				r, err := NewRouter("eq-"+mode.String(), fmt.Sprintf(`
					InfiniteSource(LIMIT %d) -> q :: Queue(%d) -> u :: Unqueue -> d :: Counter -> Discard;
				`, tc.limit, tc.qcap), Options{Driver: mode})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go r.Run(ctx)
				waitFor(t, 20*time.Second, func() bool {
					return readCount(t, r, "d.count")+readCount(t, r, "q.drops") == tc.limit
				}, mode.String()+" to account for all packets")
				if mode == SingleThreaded || tc.qcap >= tc.limit {
					// The round-robin driver strictly interleaves source
					// and drain tasks, so the queue never overflows; a
					// queue as large as the source cannot overflow under
					// any driver. Otherwise the concurrent driver may race
					// ahead on the source side.
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

// TestMultiThreadedWorkStealing gives the driver more tasks than workers
// with wildly uneven shard assignment pressure (many sources, two
// workers): every source must still finish, which requires idle workers
// to pick up migrated tasks.
func TestMultiThreadedWorkStealing(t *testing.T) {
	const nsrc = 8
	const limit = 2000
	cfg := ""
	for i := 0; i < nsrc; i++ {
		cfg += fmt.Sprintf("s%d :: InfiniteSource(LIMIT %d, BURST 8) -> c%d :: Counter -> Discard;\n", i, limit, i)
	}
	r, err := NewRouter("steal", cfg, Options{Driver: MultiThreaded, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	waitFor(t, 20*time.Second, func() bool {
		for i := 0; i < nsrc; i++ {
			if readCount(t, r, fmt.Sprintf("c%d.count", i)) != limit {
				return false
			}
		}
		return true
	}, "every source task to complete on 2 workers")
	cancel()
	r.Stop()
}

// TestMultiThreadedParallelSpeedup is a smoke check that the work-stealing
// driver actually uses more than one core when cores exist. It is skipped
// on single-core machines where no speedup is possible.
func TestMultiThreadedParallelSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs to observe parallelism")
	}
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	run := func(mode DriverMode) time.Duration {
		const limit = 200000
		r, err := NewRouter("speed-"+mode.String(), fmt.Sprintf(`
			a :: InfiniteSource(LIMIT %d, BURST 64) -> qa :: Queue(8192) -> Unqueue(BURST 64) -> ca :: Counter -> Discard;
			b :: InfiniteSource(LIMIT %d, BURST 64) -> qb :: Queue(8192) -> Unqueue(BURST 64) -> cb :: Counter -> Discard;
		`, limit, limit), Options{Driver: mode})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		start := time.Now()
		go r.Run(ctx)
		// Under MultiThreaded a source can outrun its Unqueue and the
		// queue tail-drops: a branch is done when every generated packet
		// is either counted or accounted as a drop.
		waitFor(t, 60*time.Second, func() bool {
			return readCount(t, r, "ca.count")+readCount(t, r, "qa.drops") == limit &&
				readCount(t, r, "cb.count")+readCount(t, r, "qb.drops") == limit
		}, mode.String()+" completion")
		d := time.Since(start)
		cancel()
		r.Stop()
		return d
	}
	single := run(SingleThreaded)
	multi := run(MultiThreaded)
	t.Logf("single=%v multi=%v", single, multi)
	// Loose bound: multi must not be dramatically slower than single; on
	// multi-core machines it is typically well under 1× single.
	if multi > 3*single {
		t.Errorf("MultiThreaded (%v) much slower than SingleThreaded (%v)", multi, single)
	}
}
