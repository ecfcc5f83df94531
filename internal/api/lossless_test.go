package api

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"escape/internal/sg"
)

// gatedBackend is a fakeBackend whose Deploy, once armed, blocks on a
// gate: the reconciler's one worker parks inside it.
type gatedBackend struct {
	*fakeBackend
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (b *gatedBackend) Deploy(g *sg.Graph) error {
	if b.armed.Load() {
		b.once.Do(func() { close(b.entered) })
		<-b.gate
	}
	return b.fakeBackend.Deploy(g)
}

// TestReconcilerLosslessUnderBlockedWorker makes 10k transitions across
// 1k tenant services while the reconciler's only worker is blocked in a
// deploy. Resync and backoff are an hour, so the transitions themselves
// are all the reconciler hears: once the worker is released, every
// intent must end reconciled — running, with no error.
func TestReconcilerLosslessUnderBlockedWorker(t *testing.T) {
	const services = 1000
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ids := make([]string, services)
	for i := range ids {
		ids[i] = ServiceName("acme", fmt.Sprintf("svc%d", i))
		raw, err := sg.NewChainGraph(ids[i], "monitor").ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		_, canon, hash, err := CanonicalGraph(raw)
		if err != nil {
			t.Fatal(err)
		}
		in := &Intent{ID: ids[i], Tenant: "acme", Service: fmt.Sprintf("svc%d", i), Graph: canon, Hash: hash, Desired: DesiredRun}
		if _, _, err := store.UpsertIntent(in, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	gb := &gatedBackend{fakeBackend: newFakeBackend(), entered: make(chan struct{}), gate: make(chan struct{})}
	rec := &Reconciler{Store: store, Backend: gb, Workers: 1, Resync: time.Hour, Backoff: time.Hour, Log: discardLog()}
	rec.Start()
	t.Cleanup(rec.Stop)
	allReconciled := func() bool {
		for _, id := range ids {
			if !gb.Running(id) || rec.LastError(id) != "" {
				return false
			}
		}
		return true
	}
	if !rec.Await(30*time.Second, allReconciled) {
		t.Fatal("intents never converged")
	}

	// Park the worker: the first drift sends it into a blocked deploy.
	gb.armed.Store(true)
	if err := gb.Undeploy(ids[0]); err != nil {
		t.Fatal(err)
	}
	<-gb.entered

	// Every other service flips Removed/Running through the fake, ten
	// times (ending Running) or eleven (ending Removed).
	transitions := 1
	for i := 1; i < services; i++ {
		for k := 0; k < 10+i%2; k++ {
			if k%2 == 0 {
				err = gb.fakeBackend.Undeploy(ids[i])
			} else {
				err = gb.fakeBackend.Deploy(&sg.Graph{Name: ids[i]})
			}
			if err != nil {
				t.Fatal(err)
			}
			transitions++
		}
	}
	if transitions < 10*services {
		t.Fatalf("made %d transitions, want ≥ %d", transitions, 10*services)
	}
	before := gb.deployCount()
	close(gb.gate)

	if !rec.Await(30*time.Second, allReconciled) {
		down := 0
		for _, id := range ids {
			if !gb.Running(id) {
				down++
			}
		}
		t.Fatalf("%d of %d intents not reconciled after the worker was released", down, services)
	}
	if !rec.Await(10*time.Second, idle(rec)) {
		t.Fatal("reconciler never went idle")
	}
	// After the release: the parked deploy, then one deploy for each
	// service left down, and nothing twice.
	if got, want := gb.deployCount()-before, 1+services/2; got != want {
		t.Errorf("%d deploys after release, want %d (the parked one, then one per service left down)", got, want)
	}
}

// TestFailedDeployKeepsItsBackoff pins that a failed deploy is retried
// after its backoff, not at once: the deploy's own Failed transition
// enqueues the intent while its run is still in flight, and that re-run
// must not bypass the backoff the failure scheduled.
func TestFailedDeployKeepsItsBackoff(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, _, err := store.UpsertIntent(testIntent(t, "acme", "web"), time.Now()); err != nil {
		t.Fatal(err)
	}
	fb := newFakeBackend()
	fb.failing = true
	rec := &Reconciler{Store: store, Backend: fb, Workers: 1, Resync: time.Hour, Backoff: time.Hour, Log: discardLog()}
	rec.Start()
	t.Cleanup(rec.Stop)
	if !rec.Await(5*time.Second, func() bool { return rec.LastError("acme/web") != "" }) {
		t.Fatal("the failing deploy left no error")
	}
	if !rec.Await(5*time.Second, idle(rec)) {
		t.Fatalf("reconciler never went idle: %d deploys, retrying without backoff", fb.deployCount())
	}
	if n := fb.deployCount(); n != 1 {
		t.Errorf("%d deploys before the hour-long backoff expired, want 1", n)
	}
}

// idle reports that no intent is queued or in flight. Backoff requeues
// count as pending work only once they fire, so a test pairs it with a
// check of its own convergence condition.
func idle(r *Reconciler) func() bool {
	return func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.queued) == 0 && len(r.inflight) == 0
	}
}
