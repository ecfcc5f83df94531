package api

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/sg"
)

// TestWaitedPOSTReturnsOnSettle pins that ?wait answers when the
// reconciler settles the intent, not on a polling quantum: over a
// backend that converges instantly, a waited POST costs about one
// HTTP round trip plus the WAL fsync.
func TestWaitedPOSTReturnsOnSettle(t *testing.T) {
	_, ts, _, _ := testServer(t, ServerConfig{})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})

	const posts = 20
	took := make([]time.Duration, 0, posts)
	for i := 0; i < posts; i++ {
		start := time.Now()
		resp, got := doJSON(t, "POST", ts.URL+"/v1/intents?wait=30s", tok, chainBody(t, fmt.Sprintf("svc%d", i), "monitor"))
		took = append(took, time.Since(start))
		if resp.StatusCode != http.StatusOK || got["running"] != true {
			t.Fatalf("waited POST %d: %d %v, want 200 running", i, resp.StatusCode, got)
		}
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if med := took[posts/2]; med >= 5*time.Millisecond {
		t.Errorf("median waited POST = %s, want < 5ms (sorted: %v)", med, took)
	}
}

// healBackend is a fakeBackend whose services can be put into a heal
// (deployed but not running), announcing Healing and Running the way
// core does.
type healBackend struct {
	*fakeBackend

	mu      sync.Mutex
	healing map[string]bool
}

func (b *healBackend) isHealing(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healing[name]
}

func (b *healBackend) setHealing(name string, on bool) {
	b.mu.Lock()
	b.healing[name] = on
	b.mu.Unlock()
	st := core.StateRunning
	if on {
		st = core.StateHealing
	}
	b.announce(name, st)
}

func (b *healBackend) Deployed(name string) bool {
	return b.fakeBackend.Running(name) || b.isHealing(name)
}

func (b *healBackend) Running(name string) bool {
	return b.fakeBackend.Running(name) && !b.isHealing(name)
}

// TestAwaitWakesOnDrift pins that a heal-driven Healing→Running
// transition wakes a waiter with no new POST: the backend's transition
// callback enqueues a run whose settle wakes Await. Resync and backoff
// are an hour, so nothing else could.
func TestAwaitWakesOnDrift(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	raw, err := sg.NewChainGraph("acme/web", "monitor").ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	_, canon, hash, err := CanonicalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	in := &Intent{ID: "acme/web", Tenant: "acme", Service: "web", Graph: canon, Hash: hash, Desired: DesiredRun}
	if _, _, err := store.UpsertIntent(in, time.Now()); err != nil {
		t.Fatal(err)
	}
	hb := &healBackend{fakeBackend: newFakeBackend(), healing: map[string]bool{}}
	rec := &Reconciler{Store: store, Backend: hb, Workers: 1, Resync: time.Hour, Backoff: time.Hour, Log: discardLog()}
	rec.Start()
	t.Cleanup(rec.Stop)
	running := func() bool { return hb.Running("acme/web") }
	if !rec.Await(5*time.Second, running) {
		t.Fatal("intent never converged")
	}

	hb.setHealing("acme/web", true)
	blocked := make(chan struct{})
	var once sync.Once
	woke := make(chan bool, 1)
	go func() {
		woke <- rec.Await(30*time.Second, func() bool {
			ok := running()
			if !ok {
				once.Do(func() { close(blocked) })
			}
			return ok
		})
	}()
	<-blocked
	hb.setHealing("acme/web", false)
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("Await gave up while the service was Running")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Healing→Running event did not wake the waiter")
	}
}
