package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"escape/internal/sg"
)

func testIntent(t *testing.T, tenant, service string) *Intent {
	t.Helper()
	g := sg.NewChainGraph(service, "monitor")
	g.Name = ServiceName(tenant, service)
	raw, err := g.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	_, canon, hash, err := CanonicalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	return &Intent{
		ID:      g.Name,
		Tenant:  tenant,
		Service: service,
		Graph:   canon,
		Hash:    hash,
		Desired: DesiredRun,
	}
}

func TestStoreReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := s.CreateTenant("acme", Quota{CPU: 4, Services: 10})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Token == "" || ten.VLANBase != sg.MinStitchTag {
		t.Fatalf("tenant = %+v, want token and first VLAN block", ten)
	}
	now := time.Now()
	for _, svc := range []string{"web", "db", "cache"} {
		if err := s.putIntent(testIntent(t, "acme", svc), now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Forget("acme/cache"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, torn := s2.Replayed(); n != 5 || torn {
		t.Errorf("replayed = (%d, torn=%v), want (5, false)", n, torn)
	}
	got := s2.Intents("acme")
	if len(got) != 2 || got[0].ID != "acme/db" || got[1].ID != "acme/web" {
		t.Fatalf("intents after replay = %+v", got)
	}
	want := s.Intent("acme/web")
	have := s2.Intent("acme/web")
	if have.Hash != want.Hash || string(have.Graph) != string(want.Graph) || have.Desired != DesiredRun {
		t.Errorf("replayed intent diverged: %+v vs %+v", have, want)
	}
	t2 := s2.tenantByToken(ten.Token)
	if t2 == nil || t2.Name != "acme" || t2.Quota != ten.Quota || t2.VLANBase != ten.VLANBase {
		t.Errorf("tenant after replay = %+v, want %+v", t2, ten)
	}
}

func TestStoreTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.putIntent(testIntent(t, "a", "one"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.putIntent(testIntent(t, "a", "two"), time.Now()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a half-written final record.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"op":"intent","intent":{"id":"a/to`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, torn := s2.Replayed()
	if !torn {
		t.Error("torn tail not detected")
	}
	if n != 2 {
		t.Errorf("replayed %d records, want 2", n)
	}
	if len(s2.Intents("")) != 2 {
		t.Errorf("intents = %v, want the 2 complete ones", s2.Intents(""))
	}
	// The store must still accept appends after recovering a torn log.
	if err := s2.putIntent(testIntent(t, "a", "three"), time.Now()); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Double crash: recovery must have truncated the torn tail before
	// reopening O_APPEND, or the post-recovery append above was written
	// onto the partial record's line and this second replay loses it.
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	n, torn = s3.Replayed()
	if torn {
		t.Error("torn tail reported again after a recovery that should have truncated it")
	}
	if n != 3 {
		t.Errorf("second replay applied %d records, want 3", n)
	}
	ids := []string{}
	for _, in := range s3.Intents("") {
		ids = append(ids, in.ID)
	}
	if len(ids) != 3 || ids[0] != "a/one" || ids[1] != "a/three" || ids[2] != "a/two" {
		t.Errorf("intents after double crash = %v, want the post-recovery append to survive", ids)
	}
}

func TestStoreMidFileCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"one", "two", "three"} {
		if err := s.putIntent(testIntent(t, "a", svc), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Mangle the middle record while the records after it stay intact:
	// that cannot be a torn tail, so the store must refuse to open
	// instead of silently dropping the valid records behind it.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("want >= 3 WAL lines, got %d", len(lines))
	}
	lines[1] = append([]byte(`{"seq":2,"op":"intent","intent":{"id":"a/tw`), '\n')
	if err := os.WriteFile(walPath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("OpenStore succeeded on a WAL corrupted mid-file; want a loud failure")
	}
}

func TestUpsertIntentConcurrentSingleWinner(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two rival graphs race for the same ID across many goroutines:
	// exactly one write may win; every rival must see errIntentConflict,
	// and every copy of the winner must come back as an idempotent hit.
	a, b := testIntent(t, "acme", "web"), testIntent(t, "acme", "web")
	b.Graph = append(json.RawMessage{}, a.Graph...)
	b.Hash = "different-" + a.Hash
	const perSide = 8
	var (
		wg                          sync.WaitGroup
		mu                          sync.Mutex
		writes, idemHits, conflicts int
	)
	for i := 0; i < 2*perSide; i++ {
		in := *a
		if i%2 == 1 {
			in = *b
		}
		wg.Add(1)
		go func(in Intent) {
			defer wg.Done()
			stored, idem, err := s.UpsertIntent(&in, time.Now())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, errIntentConflict):
				conflicts++
			case err != nil:
				t.Errorf("UpsertIntent: %v", err)
			case idem:
				idemHits++
			default:
				if stored == nil {
					t.Error("winning upsert returned nil intent")
				}
				writes++
			}
		}(in)
	}
	wg.Wait()
	if writes != 1 || idemHits != perSide-1 || conflicts != perSide {
		t.Errorf("writes/idem/conflicts = %d/%d/%d, want 1/%d/%d",
			writes, idemHits, conflicts, perSide-1, perSide)
	}
	got := s.Intents("")
	if len(got) != 1 {
		t.Fatalf("stored %d intents, want exactly 1", len(got))
	}
	if got[0].Hash != a.Hash && got[0].Hash != b.Hash {
		t.Errorf("stored hash %q is neither contender", got[0].Hash)
	}
}

func TestStoreSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.every = 4 // snapshot every 4 appends
	now := time.Now()
	for _, svc := range []string{"a", "b", "c", "d", "e"} {
		if err := s.putIntent(testIntent(t, "t", svc), now); err != nil {
			t.Fatal(err)
		}
	}
	// 5 appends with every=4: snapshot fired at the 4th, leaving one
	// record in the WAL.
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 4 || len(snap.Intents) != 4 {
		t.Errorf("snapshot seq=%d intents=%d, want 4/4", snap.Seq, len(snap.Intents))
	}
	s.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Replayed(); n != 1 {
		t.Errorf("replayed %d WAL records on top of snapshot, want 1", n)
	}
	if len(s2.Intents("")) != 5 {
		t.Errorf("intents after snapshot+WAL replay = %d, want 5", len(s2.Intents("")))
	}
}

func TestVLANBlocksDisjoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seen := map[int]string{}
	for _, name := range []string{"t1", "t2", "t3"} {
		ten, err := s.CreateTenant(name, Quota{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ten.vlanRange()
		if lo < sg.MinStitchTag || hi > sg.MaxStitchTag {
			t.Errorf("tenant %s block [%d,%d] outside stitch range", name, lo, hi)
		}
		for tag := lo; tag <= hi; tag++ {
			if owner, dup := seen[tag]; dup {
				t.Fatalf("tag %d owned by both %s and %s", tag, owner, name)
			}
			seen[tag] = name
		}
	}
	// Tag membership follows the blocks.
	t1, t2 := s.tenants["t1"], s.tenants["t2"]
	if !t1.ownsTag(t1.VLANBase) || t1.ownsTag(t2.VLANBase) {
		t.Error("ownsTag does not respect block boundaries")
	}
}

// TestConcurrentPostDeleteGetSeesOnlyDurable runs POST, GET and DELETE
// from several clients at once while a reader lists intents without
// pause. Writers fsync under the store's writer lock and readers never
// take it; whatever a reader sees must already be in the WAL on disk.
func TestConcurrentPostDeleteGetSeesOnlyDurable(t *testing.T) {
	srv, ts, rec, _ := testServer(t, ServerConfig{})
	store := srv.cfg.Store
	store.every = 1 << 30 // keep every record in the WAL for the check
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})

	const clients, cycles = 3, 15
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			seen := store.Intents("acme")
			if len(seen) == 0 || store.tenantByToken(tok) == nil {
				continue
			}
			wal, err := os.ReadFile(store.walPath())
			if err != nil {
				t.Error(err)
				return
			}
			for _, in := range seen {
				if !bytes.Contains(wal, []byte(`"id":"`+in.ID+`"`)) {
					t.Errorf("intent %s visible before its WAL record is on disk", in.ID)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("svc%d", c)
			for i := 0; i < cycles; i++ {
				if resp, got := doJSON(t, "POST", ts.URL+"/v1/intents?wait=5s", tok, chainBody(t, name, "monitor")); resp.StatusCode != http.StatusOK {
					t.Errorf("post %s: %d %v", name, resp.StatusCode, got)
					return
				}
				if resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents/"+name, tok, nil); resp.StatusCode != http.StatusOK {
					t.Errorf("get %s: %d", name, resp.StatusCode)
					return
				}
				if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/intents/"+name, tok, nil); resp.StatusCode != http.StatusAccepted {
					t.Errorf("delete %s: %d", name, resp.StatusCode)
					return
				}
				id := ServiceName("acme", name)
				rec.Await(5*time.Second, func() bool { return store.Intent(id) == nil })
				if store.Intent(id) != nil {
					t.Errorf("%s not forgotten after delete", id)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(done)
	readers.Wait()
}

// TestStoreReadsWaitOnlyForTheirIntent holds the writer lock, as an
// fsync in flight does, with a Forget of one intent queued behind it.
// Reads of other intents, the intent list and token lookups answer at
// once; a read of the intent being forgotten waits and answers with the
// state the Forget leaves.
func TestStoreReadsWaitOnlyForTheirIntent(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ten, err := s.CreateTenant("acme", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"a", "b"} {
		if err := s.putIntent(testIntent(t, "acme", svc), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	s.wmu.Lock()
	forgot := make(chan error)
	go func() { forgot <- s.Forget("acme/a") }()
	for queued := false; !queued; {
		s.mu.RLock()
		queued = s.writing["acme/a"] > 0
		s.mu.RUnlock()
	}
	others := make(chan bool)
	go func() {
		others <- s.Intent("acme/b") != nil && len(s.Intents("acme")) == 2 && s.tenantByToken(ten.Token) != nil
	}()
	read := make(chan *Intent, 1)
	go func() { read <- s.Intent("acme/a") }()
	var problems []string
	select {
	case ok := <-others:
		if !ok {
			problems = append(problems, "reads of other state answered wrongly")
		}
	case <-time.After(2 * time.Second):
		problems = append(problems, "reads of other state waited on the write in flight")
	}
	select {
	case in := <-read:
		problems = append(problems, fmt.Sprintf("Intent of the intent being forgotten answered %s before the write ended", in.ID))
		read <- nil
	case <-time.After(50 * time.Millisecond):
	}
	s.wmu.Unlock()
	if err := <-forgot; err != nil {
		t.Fatal(err)
	}
	if problems != nil {
		t.Fatal(problems)
	}
	if in := <-read; in != nil {
		t.Fatalf("Intent answered %v, want the forgotten state", in)
	}
}

// TestStoreFailedAppendStaysInvisible: a mutation whose WAL write fails
// is refused and never reaches a reader, so nothing is visible that a
// restart would not replay.
func TestStoreFailedAppendStaysInvisible(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.wal.Close() // every later write fails
	in := testIntent(t, "acme", "web")
	if _, _, err := s.UpsertIntent(in, time.Now()); err == nil {
		t.Fatal("UpsertIntent succeeded on a closed WAL")
	}
	if got := s.Intent(in.ID); got != nil || len(s.Intents("")) != 0 {
		t.Fatalf("a refused write is visible: Intent found %t, %d listed", got != nil, len(s.Intents("")))
	}
}
