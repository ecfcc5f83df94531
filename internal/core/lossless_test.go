package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestOnTransitionLosslessUnderBlockedConsumer drives 10k transitions
// across 1k services while the consumer's worker is blocked. The
// consumer's callback only marks the service dirty and pokes a one-slot
// wake, the shape OnTransition documents; once the worker runs, it reads
// each dirty service's current state and must find every service's
// final state, however many wakes coalesced.
func TestOnTransitionLosslessUnderBlockedConsumer(t *testing.T) {
	const services, producers = 1000, 4
	o := &Orchestrator{subs: map[int]func(Event){}}
	svcs := make([]*Service, services)
	byName := map[string]*Service{}
	for i := range svcs {
		svcs[i] = &Service{Name: fmt.Sprintf("svc%d", i)}
		byName[svcs[i].Name] = svcs[i]
	}
	// Ten transitions a service, ending Running, Failed or Removed.
	walk := func(i int) []ServiceState {
		w := []ServiceState{StateMapped, stateRealizing, StateSteering, StateRunning,
			StateHealing, StateRunning, StateHealing, StateRunning, StateHealing}
		return append(w, [...]ServiceState{StateRunning, StateFailed, StateRemoved}[i%3])
	}

	var mu sync.Mutex
	dirty := map[string]bool{}
	wake := make(chan struct{}, 1)
	cancel := o.OnTransition(func(ev Event) {
		mu.Lock()
		dirty[ev.Service] = true
		mu.Unlock()
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	defer cancel()

	gate := make(chan struct{})
	seen := make(chan map[string]ServiceState)
	go func() { // the consumer's worker: blocked until every transition is made
		<-gate
		<-wake
		mu.Lock()
		names := dirty
		dirty = map[string]bool{}
		mu.Unlock()
		got := map[string]ServiceState{}
		for name := range names {
			got[name] = byName[name].State()
		}
		seen <- got
	}()

	var made sync.WaitGroup
	var transitions [producers]int
	for p := 0; p < producers; p++ {
		made.Add(1)
		go func(p int) {
			defer made.Done()
			// Step every service of this producer's share in lockstep, so
			// transitions of different services interleave.
			for step := 0; step < 10; step++ {
				for i := p; i < services; i += producers {
					if !o.setState(svcs[i], walk(i)[step], nil) {
						t.Errorf("svc%d step %d: transition refused", i, step)
						return
					}
					transitions[p]++
				}
			}
		}(p)
	}
	made.Wait()
	total := 0
	for _, n := range transitions {
		total += n
	}
	if total != 10*services {
		t.Fatalf("made %d transitions, want %d", total, 10*services)
	}
	close(gate)
	got := <-seen
	if len(got) != services {
		t.Fatalf("consumer woke for %d services, want %d", len(got), services)
	}
	for i, svc := range svcs {
		if want := walk(i)[9]; got[svc.Name] != want {
			t.Errorf("%s: consumer read %s, want final state %s", svc.Name, got[svc.Name], want)
		}
	}
}
