package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Lifecycle event streams under subscriber churn: subscribers appearing,
// lagging and cancelling concurrently with rapid state transitions must
// never panic (send on closed channel) and must never lose events for a
// live, draining subscriber.

func TestSubscribeChurnDuringTransitions(t *testing.T) {
	spec := demoSpec()
	spec.EEs = map[string]EESpec{
		"ee1": {Switch: "s1", CPU: 16, Mem: 16384},
		"ee2": {Switch: "s2", CPU: 16, Mem: 16384},
	}
	env := startEnv(t, spec)

	// One stable subscriber with a deep buffer and a fast reader: it must
	// see every Removed event exactly once.
	stable, cancelStable := env.Orch.Subscribe(4096)
	removedSeen := make(chan int, 1)
	go func() {
		n := 0
		for ev := range stable {
			if ev.State == StateRemoved {
				n++
			}
		}
		removedSeen <- n
	}()

	// Churning subscribers: tiny buffers, random cancellation points —
	// some cancel between the engine's snapshot and send, which is the
	// send-on-closed-channel window this test guards.
	var churnWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := env.Orch.Subscribe(1)
				select {
				case <-ch:
				default:
				}
				cancel()
				// Cancelling twice must be harmless.
				cancel()
			}
		}()
	}

	const workers, rounds = 4, 5
	var undeploys atomic.Int64
	var deployWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		deployWG.Add(1)
		go func(w int) {
			defer deployWG.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("churn-%d-%d", w, r)
				if _, err := env.Orch.Deploy(sapGraph(name, "monitor")); err != nil {
					t.Errorf("%s deploy: %v", name, err)
					return
				}
				if err := env.Orch.Undeploy(name); err != nil {
					t.Errorf("%s undeploy: %v", name, err)
					return
				}
				undeploys.Add(1)
			}
		}(w)
	}
	deployWG.Wait()
	close(stop)
	churnWG.Wait()
	cancelStable()

	if n := <-removedSeen; int64(n) != undeploys.Load() {
		t.Errorf("stable subscriber saw %d Removed events, want %d", n, undeploys.Load())
	}
}

func TestSubscribeWithAbandonedSubscribers(t *testing.T) {
	env := startEnv(t, demoSpec())

	// Abandoned subscribers never drain: once their buffers fill, events
	// to them drop, and the engine must neither wedge nor crash.
	const drainers, abandoners = 8, 8
	for i := 0; i < abandoners; i++ {
		_, cancel := env.Orch.Subscribe(1)
		defer cancel()
	}
	// Drainers follow one service, filtered out of the shared stream,
	// until its terminal state.
	var wg sync.WaitGroup
	terminal := make(chan ServiceState, drainers)
	for i := 0; i < drainers; i++ {
		events, cancel := env.Orch.Subscribe(64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			for ev := range events {
				if ev.Service == "watched" && ev.State.Terminal() {
					terminal <- ev.State
					return
				}
			}
		}()
	}

	if _, err := env.Orch.Deploy(sapGraph("watched", "monitor")); err != nil {
		t.Fatal(err)
	}
	// Two more full lifecycles overflow every abandoned buffer.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("filler-%d", i)
		if _, err := env.Orch.Deploy(sapGraph(name, "monitor")); err != nil {
			t.Fatal(err)
		}
		if err := env.Orch.Undeploy(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Orch.Undeploy("watched"); err != nil {
		t.Fatal(err)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("draining subscribers never saw the terminal state")
	}
	close(terminal)
	for st := range terminal {
		if st != StateRemoved {
			t.Errorf("drainer's terminal state = %s, want Removed", st)
		}
	}
}
