package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

// fakeBackend converges instantly: Deploy marks the service running.
// Like core, it announces the transitions it makes — Running after a
// deploy, Failed after a failed one, Removed after an undeploy — to
// every OnTransition callback, so drift made through it wakes the
// reconciler directly.
type fakeBackend struct {
	mu      sync.Mutex
	running map[string]bool
	deploys int
	failing bool

	fnMu   sync.Mutex
	fns    map[int]func(core.Event)
	nextFn int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{running: map[string]bool{}, fns: map[int]func(core.Event){}}
}

func (b *fakeBackend) Deploy(g *sg.Graph) error {
	b.mu.Lock()
	b.deploys++
	if b.failing {
		b.mu.Unlock()
		b.announce(g.Name, core.StateFailed)
		return fmt.Errorf("fake: substrate down")
	}
	b.running[g.Name] = true
	b.mu.Unlock()
	b.announce(g.Name, core.StateRunning)
	return nil
}

func (b *fakeBackend) Undeploy(name string) error {
	b.mu.Lock()
	if !b.running[name] {
		b.mu.Unlock()
		return fmt.Errorf("fake: %q not deployed", name)
	}
	delete(b.running, name)
	b.mu.Unlock()
	b.announce(name, core.StateRemoved)
	return nil
}

// announce calls every registered callback, under fnMu as core calls
// them under its subscriber lock.
func (b *fakeBackend) announce(name string, st core.ServiceState) {
	ev := core.Event{Service: name, State: st, Time: time.Now()}
	b.fnMu.Lock()
	defer b.fnMu.Unlock()
	for _, fn := range b.fns {
		fn(ev)
	}
}

func (b *fakeBackend) OnTransition(fn func(core.Event)) func() {
	b.fnMu.Lock()
	defer b.fnMu.Unlock()
	id := b.nextFn
	b.nextFn++
	b.fns[id] = fn
	return func() {
		b.fnMu.Lock()
		defer b.fnMu.Unlock()
		delete(b.fns, id)
	}
}

// Heal finds nothing to heal: the fake has no substrate to fail.
func (b *fakeBackend) Heal(string) error { return nil }

func (b *fakeBackend) Deployed(name string) bool { return b.Running(name) }

func (b *fakeBackend) Running(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running[name]
}

func (b *fakeBackend) Services() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.running))
	for n := range b.running {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (b *fakeBackend) deployCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.deploys
}

// testServer wires a full stack over the fake backend.
func testServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server, *Reconciler, *fakeBackend) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	fb := newFakeBackend()
	rec := &Reconciler{Store: store, Backend: fb, Workers: 2, Resync: 50 * time.Millisecond, Backoff: 5 * time.Millisecond, Log: discardLog()}
	rec.Start()
	t.Cleanup(rec.Stop)
	cfg.Store = store
	cfg.Backend = fb
	cfg.Reconciler = rec
	cfg.Metrics = rec.Metrics
	if cfg.AdminToken == "" {
		cfg.AdminToken = "root"
	}
	if cfg.Log == nil {
		cfg.Log = discardLog()
	}
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, rec, fb
}

func doJSON(t *testing.T, method, url, token string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out map[string]any
	json.Unmarshal(raw, &out)
	return resp, out
}

func createTenant(t *testing.T, base, admin, name string, q Quota) string {
	t.Helper()
	resp, body := doJSON(t, "POST", base+"/v1/tenants", admin, createTenantReq{Name: name, Quota: q})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create tenant: %d %v", resp.StatusCode, body)
	}
	return body["token"].(string)
}

func chainBody(t *testing.T, name string, nfs ...string) map[string]any {
	t.Helper()
	g := sg.NewChainGraph(name, nfs...)
	raw, err := g.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{"graph": json.RawMessage(raw)}
}

func TestAuthAndTenantLifecycle(t *testing.T) {
	_, ts, _, _ := testServer(t, ServerConfig{})
	// No token / wrong token → 401.
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: %d, want 401", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/tenants", "wrong", createTenantReq{Name: "x"}); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad admin token: %d, want 401", resp.StatusCode)
	}
	tok := createTenant(t, ts.URL, "root", "acme", Quota{Services: 5})
	// Duplicate tenant → 409.
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/tenants", "root", createTenantReq{Name: "acme"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("dup tenant: %d, want 409", resp.StatusCode)
	}
	// The minted token authenticates.
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents", tok, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("tenant list with fresh token: %d, want 200", resp.StatusCode)
	}
	// Healthz needs no auth.
	if resp, _ := doJSON(t, "GET", ts.URL+"/healthz", "", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestIntentDeployIdempotencyAndDelete(t *testing.T) {
	_, ts, rec, fb := testServer(t, ServerConfig{})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})

	body := chainBody(t, "web", "monitor")
	resp, got := doJSON(t, "POST", ts.URL+"/v1/intents?wait=5s", tok, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post intent: %d %v", resp.StatusCode, got)
	}
	if got["running"] != true || got["id"] != "acme/web" {
		t.Fatalf("intent status = %v, want running acme/web", got)
	}
	if n := fb.deployCount(); n != 1 {
		t.Fatalf("deploys = %d, want 1", n)
	}

	// Identical re-POST: answered from the store, no second deploy, no
	// new intent.
	resp, got = doJSON(t, "POST", ts.URL+"/v1/intents?wait=5s", tok, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-post: %d %v", resp.StatusCode, got)
	}
	rec.Await(5*time.Second, idle(rec))
	if n := fb.deployCount(); n != 1 {
		t.Errorf("deploys after duplicate POST = %d, want still 1", n)
	}
	if hits := rec.Metrics.IntentsIdemHit.Load(); hits != 1 {
		t.Errorf("idempotent hits = %d, want 1", hits)
	}

	// Same name, different graph → 409.
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/intents", tok, chainBody(t, "web", "monitor", "monitor")); resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting graph: %d, want 409", resp.StatusCode)
	}

	// Delete → reconciler tears it down and forgets the intent.
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/intents/web", tok, nil); resp.StatusCode != http.StatusAccepted {
		t.Errorf("delete: %d, want 202", resp.StatusCode)
	}
	rec.Await(5*time.Second, func() bool {
		return !fb.Running("acme/web") && rec.Store.Intent("acme/web") == nil
	})
	if fb.Running("acme/web") {
		t.Error("service still running after delete")
	}
	if rec.Store.Intent("acme/web") != nil {
		t.Error("intent not forgotten after teardown")
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents/web", tok, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete: %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentPostsSingleWinner races identical and conflicting
// POSTs of the same service name: the store-level compare-and-put must
// let exactly one write through, answer the identical copies
// idempotently, and 409 every rival graph — never last-writer-wins.
func TestConcurrentPostsSingleWinner(t *testing.T) {
	_, ts, rec, _ := testServer(t, ServerConfig{})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})

	bodyA, err := json.Marshal(chainBody(t, "web", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	bodyB, err := json.Marshal(chainBody(t, "web", "monitor", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	const perSide = 4
	codes := make(chan int, 2*perSide)
	var wg sync.WaitGroup
	for i := 0; i < 2*perSide; i++ {
		body := bodyA
		if i%2 == 1 {
			body = bodyB
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/v1/intents", bytes.NewReader(body))
			if err != nil {
				codes <- 0
				return
			}
			req.Header.Set("Authorization", "Bearer "+tok)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(body)
	}
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusAccepted] != 1 || counts[http.StatusOK] != perSide-1 || counts[http.StatusConflict] != perSide {
		t.Fatalf("status counts = %v, want one 202, %d 200s, %d 409s", counts, perSide-1, perSide)
	}
	if got := len(rec.Store.Intents("acme")); got != 1 {
		t.Errorf("store holds %d intents for one service name, want 1", got)
	}
	if admitted := rec.Metrics.IntentsAdmitted.Load(); admitted != 1 {
		t.Errorf("admitted = %d, want 1 (check-then-put race not closed)", admitted)
	}
}

// pendingBackend accepts deploys but never reports them running, so a
// ?wait on it blocks for its full duration.
type pendingBackend struct{}

func (pendingBackend) Deploy(*sg.Graph) error { return nil }
func (pendingBackend) Undeploy(string) error  { return nil }
func (pendingBackend) Deployed(string) bool   { return false }
func (pendingBackend) Running(string) bool    { return false }
func (pendingBackend) Heal(string) error      { return nil }
func (pendingBackend) Services() []string     { return nil }
func (pendingBackend) OnTransition(func(core.Event)) func() {
	return func() {}
}

// TestWaitedPOSTReleasesQueueSlot pins the cross-tenant starvation
// fix: a POST blocked in ?wait must give its admission-queue slot back
// before sleeping, so other requests flow while it waits.
func TestWaitedPOSTReleasesQueueSlot(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	rec := &Reconciler{Store: store, Backend: pendingBackend{}, Workers: 1, Resync: time.Hour, Backoff: 5 * time.Millisecond, Log: discardLog()}
	rec.Start()
	t.Cleanup(rec.Stop)
	srv := NewServer(ServerConfig{
		Store: store, Backend: pendingBackend{}, Reconciler: rec,
		AdminToken: "root", QueueSlots: 1, Log: discardLog(),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})

	body, err := json.Marshal(chainBody(t, "web", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		req, err := http.NewRequest("POST", ts.URL+"/v1/intents?wait=1500ms", bytes.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(150 * time.Millisecond) // let the POST claim the only slot and enter its wait
	resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET while a POST waits = %d, want 200 (waiter still holds the queue slot)", resp.StatusCode)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("waited POST finished %d, want 200", code)
	}
}

func TestQuotaPrecheckRejects(t *testing.T) {
	gate := NewQuotaGate()
	_, ts, _, _ := testServer(t, ServerConfig{Gate: gate, Catalog: catalog.Default()})
	// monitor defaults to 0.1 CPU; a 3-NF chain needs 0.3.
	tok := createTenant(t, ts.URL, "root", "small", Quota{CPU: 0.2})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/intents", tok, chainBody(t, "big", "monitor", "monitor", "monitor"))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-quota post: %d %v, want 403", resp.StatusCode, body)
	}
	// Within quota passes the pre-check.
	if resp, body := doJSON(t, "POST", ts.URL+"/v1/intents?wait=5s", tok, chainBody(t, "ok", "monitor")); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-quota post: %d %v", resp.StatusCode, body)
	}
}

func TestQuotaGateEnforcesAtCommit(t *testing.T) {
	gate := NewQuotaGate()
	gate.SetTenant(&Tenant{Name: "acme", Quota: Quota{Services: 1, CPU: 0.5}})
	mk := func(service string) *core.Mapping {
		g := sg.NewChainGraph(service, "monitor")
		g.Name = "acme/" + service
		return &core.Mapping{
			Graph:      g,
			Placements: map[string]string{g.NFs[0].ID: "ee1"},
			Routes:     map[string][]string{},
			Catalog:    catalog.Default(),
		}
	}
	m1, m2 := mk("one"), mk("two")
	if err := gate.Admit(m1); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	err := gate.Admit(m2)
	var qe *quotaError
	if !errors.As(err, &qe) || qe.Dim != "services" {
		t.Fatalf("second admit = %v, want services QuotaError", err)
	}
	gate.Released(m1)
	if err := gate.Admit(m2); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	// Untenanted mappings pass unmetered.
	un := mk("free")
	un.Graph.Name = "free"
	if err := gate.Admit(un); err != nil {
		t.Fatalf("untenanted admit: %v", err)
	}
}

func TestVLANTagsOutsideBlockRejected(t *testing.T) {
	_, ts, _, _ := testServer(t, ServerConfig{})
	tok1 := createTenant(t, ts.URL, "root", "t1", Quota{})
	createTenant(t, ts.URL, "root", "t2", Quota{})

	g := sg.NewChainGraph("pinned", "monitor")
	// t2's block starts one vlanBlockSize above t1's.
	g.Links[0].IngressTag = uint16(sg.MinStitchTag + vlanBlockSize)
	raw, _ := g.ToJSON()
	resp, body := doJSON(t, "POST", ts.URL+"/v1/intents", tok1, map[string]any{"graph": json.RawMessage(raw)})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign tag: %d %v, want 403", resp.StatusCode, body)
	}
	// A tag inside the tenant's own block is accepted.
	g.Links[0].IngressTag = uint16(sg.MinStitchTag + 1)
	raw, _ = g.ToJSON()
	if resp, body := doJSON(t, "POST", ts.URL+"/v1/intents?wait=5s", tok1, map[string]any{"graph": json.RawMessage(raw)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("own tag: %d %v", resp.StatusCode, body)
	}
}

func TestBackpressure429(t *testing.T) {
	srv, ts, _, _ := testServer(t, ServerConfig{QueueSlots: 2})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})
	// Fill every queue slot, then any /v1 request sheds with 429.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents", tok, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-srv.sem
	<-srv.sem
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents", tok, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("after slots freed: %d, want 200", resp.StatusCode)
	}
}

func TestRateLimit429(t *testing.T) {
	_, ts, _, _ := testServer(t, ServerConfig{Rate: 0.5, Burst: 2})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})
	codes := []int{}
	for i := 0; i < 4; i++ {
		resp, _ := doJSON(t, "GET", ts.URL+"/v1/intents", tok, nil)
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests rejected: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests && codes[3] != http.StatusTooManyRequests {
		t.Fatalf("no rate-limit rejection in %v", codes)
	}
}

func TestReconcilerRetriesAndDriftRepair(t *testing.T) {
	_, ts, rec, fb := testServer(t, ServerConfig{})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{})

	fb.mu.Lock()
	fb.failing = true
	fb.mu.Unlock()
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/intents", tok, chainBody(t, "web", "monitor")); resp.StatusCode != http.StatusAccepted {
		t.Fatal("post")
	}
	// The deploy fails and is retried with backoff; last_error surfaces.
	running := func(id string) func() bool { return func() bool { return fb.Running(id) } }
	if !rec.Await(5*time.Second, func() bool { return rec.LastError("acme/web") != "" }) {
		t.Fatal("no last_error recorded for failing deploy")
	}
	fb.mu.Lock()
	fb.failing = false
	fb.mu.Unlock()
	if !rec.Await(5*time.Second, running("acme/web")) {
		t.Fatal("reconciler never converged after substrate recovered")
	}

	// Drift: the service is torn down under the controller; its Removed
	// transition wakes the reconciler, which redeploys it.
	if err := fb.Undeploy("acme/web"); err != nil {
		t.Fatal(err)
	}
	if !rec.Await(5*time.Second, running("acme/web")) {
		t.Fatal("drift not repaired")
	}

	// Orphan: a tenant-prefixed service with no intent is swept.
	fb.mu.Lock()
	fb.running["acme/ghost"] = true
	fb.mu.Unlock()
	if !rec.Await(5*time.Second, func() bool { return !fb.Running("acme/ghost") }) {
		t.Fatal("orphaned service not swept")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, _ := testServer(t, ServerConfig{})
	createTenant(t, ts.URL, "root", "acme", Quota{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"escaped_requests_total", "escaped_queue_depth", "escaped_reconcile_lag_seconds"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestPostRefusesBadNFParams: an NF parameter the VNF template refuses is
// a 400, and the intent is never stored.
func TestPostRefusesBadNFParams(t *testing.T) {
	srv, ts, _, _ := testServer(t, ServerConfig{Catalog: catalog.Default()})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{Services: 5})
	g := sg.NewChainGraph("evil", "simpleForwarder")
	g.NFs[0].Params = map[string]string{"QUEUE": "1000) -> Counter -> ToDevice(out); FromDevice(in) -> Queue(1"}
	raw, err := g.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/intents", tok, map[string]any{"graph": json.RawMessage(raw)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with an injected QUEUE: %d %v, want 400", resp.StatusCode, body)
	}
	if in := srv.cfg.Store.Intent(ServiceName("acme", "evil")); in != nil {
		t.Errorf("refused intent was stored: %+v", in)
	}
	g.NFs[0].Params = map[string]string{"QUEUE": "64"}
	if raw, err = g.ToJSON(); err != nil {
		t.Fatal(err)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/v1/intents", tok, map[string]any{"graph": json.RawMessage(raw)}); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST with QUEUE 64: %d %v", resp.StatusCode, body)
	}
}
