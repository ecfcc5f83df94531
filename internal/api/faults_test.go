package api

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"escape/internal/sg"
)

// healCountBackend is a fakeBackend that counts Heal calls per service.
type healCountBackend struct {
	*fakeBackend

	mu    sync.Mutex
	heals map[string]int
}

func (b *healCountBackend) Heal(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.heals[name]++
	return nil
}

func (b *healCountBackend) counts() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.heals))
	for name, n := range b.heals {
		out[name] = n
	}
	return out
}

// TestFaultsWakeHealsEveryIntent pins the Faults dependency: each
// receive runs every stored intent, a Running one through Heal, and a
// closed channel stops the wakes without stopping the reconciler.
// Resync and backoff are an hour, so nothing else runs an intent.
func TestFaultsWakeHealsEveryIntent(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var ids []string
	for i := 0; i < 3; i++ {
		in, err := NewIntent("acme", sg.NewChainGraph(fmt.Sprintf("svc%d", i), "monitor"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.UpsertIntent(in, time.Now()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, in.ID)
	}
	hb := &healCountBackend{fakeBackend: newFakeBackend(), heals: map[string]int{}}
	faults := make(chan struct{}, 1)
	rec := &Reconciler{Store: store, Backend: hb, Faults: faults, Workers: 2, Resync: time.Hour, Backoff: time.Hour, Log: discardLog()}
	rec.Start()
	t.Cleanup(rec.Stop)
	healedSince := func(base map[string]int, ids ...string) func() bool {
		return func() bool {
			now := hb.counts()
			for _, id := range ids {
				if now[id] <= base[id] {
					return false
				}
			}
			return true
		}
	}
	if !rec.Await(5*time.Second, healedSince(nil, ids...)) || !rec.AwaitIdle(5*time.Second) {
		t.Fatalf("intents not running and healed once: heals %v", hb.counts())
	}

	base := hb.counts()
	faults <- struct{}{}
	if !rec.Await(5*time.Second, healedSince(base, ids...)) {
		t.Fatalf("a Faults wake did not heal every intent: heals %v, before %v", hb.counts(), base)
	}

	close(faults)
	if !rec.AwaitIdle(5 * time.Second) {
		t.Fatal("the reconciler never went idle after Faults closed")
	}
	base = hb.counts()
	rec.Enqueue(ids[0])
	if !rec.Await(5*time.Second, healedSince(base, ids[0])) || !rec.AwaitIdle(5*time.Second) {
		t.Fatalf("the reconciler stopped serving after Faults closed: heals %v", hb.counts())
	}
	if now := hb.counts(); now[ids[1]] != base[ids[1]] || now[ids[2]] != base[ids[2]] {
		t.Errorf("a closed Faults channel kept waking the reconciler: heals %v, before %v", now, base)
	}
}
