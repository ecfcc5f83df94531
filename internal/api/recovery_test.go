package api

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/sg"
)

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// recoveryTopo sizes two EEs for n small chains with private host pairs.
func recoveryTopo(n int) core.TopoSpec {
	hosts := map[string]string{}
	for i := 0; i < n; i++ {
		hosts[fmt.Sprintf("h%da", i)] = "s1"
		hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	return core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    hosts,
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: float64(n)*0.4 + 1, Mem: n*128 + 256},
			"ee2": {Switch: "s2", CPU: float64(n)*0.4 + 1, Mem: n*128 + 256},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
}

// recoveryGraph is one tenant-local 2-NF chain pinned to host pair i.
func recoveryGraph(t *testing.T, i int) json.RawMessage {
	t.Helper()
	g := sg.NewChainGraph(fmt.Sprintf("svc%d", i), "monitor", "monitor")
	g.SAPs[0].ID = fmt.Sprintf("h%da", i)
	g.SAPs[1].ID = fmt.Sprintf("h%db", i)
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	raw, err := g.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// controlPlane is one full escaped stack over a real core environment.
type controlPlane struct {
	env   *core.Environment
	store *Store
	gate  *QuotaGate
	rec   *Reconciler
	ts    *httptest.Server
}

// startControlPlane boots substrate + store + gate + reconciler + HTTP.
// Workers=1 keeps the replay order deterministic (sorted intent IDs),
// which is what makes the bit-exact view comparison below possible.
func startControlPlane(t *testing.T, dir string, n int) *controlPlane {
	t.Helper()
	env, err := core.StartEnvironment(recoveryTopo(n))
	if err != nil {
		t.Fatal(err)
	}
	gate := NewQuotaGate()
	env.View.SetCommitGate(gate)
	store, err := OpenStore(dir)
	if err != nil {
		env.Close()
		t.Fatal(err)
	}
	rec := &Reconciler{
		Store:   store,
		Backend: &CoreBackend{Orch: env.Orch},
		Workers: 1,
		Resync:  time.Hour, // no background churn: every action is accounted for
		Backoff: 20 * time.Millisecond,
		Log:     discardLog(),
	}
	// The daemon's order: NewServer seeds the quota gate with the stored
	// tenants, and only then may the reconciler admit replayed intents.
	srv := NewServer(ServerConfig{
		Store:      store,
		Backend:    &CoreBackend{Orch: env.Orch},
		Reconciler: rec,
		Gate:       gate,
		AdminToken: "root",
		Log:        discardLog(),
	})
	rec.Start()
	return &controlPlane{env: env, store: store, gate: gate, rec: rec, ts: httptest.NewServer(srv.Handler())}
}

// crash simulates kill -9: nothing is flushed, snapshotted or torn
// down gracefully — the goroutines just stop and the substrate dies.
// A half-written record is appended to the WAL the way an interrupted
// write would leave it.
func (cp *controlPlane) crash(t *testing.T, dir string) {
	t.Helper()
	cp.ts.Close()
	cp.rec.Stop()
	cp.env.Close()
	cp.store.Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":9999,"op":"intent","intent":{"id":"acme/torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// awaitRunning waits for reconciliation to re-admit acme/svc0..n-1.
func (cp *controlPlane) awaitRunning(t *testing.T, n int) {
	t.Helper()
	cp.rec.Await(60*time.Second, func() bool {
		for i := 0; i < n; i++ {
			if !cp.rec.Backend.Running(fmt.Sprintf("acme/svc%d", i)) {
				return false
			}
		}
		return true
	})
	cp.rec.Await(10*time.Second, idle(cp.rec))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("acme/svc%d", i)
		if !cp.rec.Backend.Running(id) {
			t.Fatalf("intent %s did not converge after recovery (last error: %s)", id, cp.rec.LastError(id))
		}
	}
}

func (cp *controlPlane) stop() {
	cp.ts.Close()
	cp.rec.Stop()
	cp.env.Close()
	cp.store.Close()
}

// TestCrashRecoveryRestoresExactView deploys n intents through the
// API, kills the daemon without any cleanup, restarts it on a fresh
// substrate from the same data directory, and asserts that WAL replay
// plus reconciliation reproduce the committed resource view
// bit-exactly: identical ResourceView fingerprint (per-EE CPU/mem,
// per-link bandwidth), identical epoch (same number of commits from a
// fresh view — nothing double-admitted, nothing lost), and identical
// per-tenant quota usage.
func TestCrashRecoveryRestoresExactView(t *testing.T) {
	dir := t.TempDir()
	const n = 5

	cp1 := startControlPlane(t, dir, n)
	tok := createTenant(t, cp1.ts.URL, "root", "acme", Quota{CPU: 10, Mem: 4096, Services: 16})
	for i := 0; i < n; i++ {
		resp, body := doJSON(t, "POST", cp1.ts.URL+"/v1/intents?wait=30s", tok,
			map[string]any{"graph": recoveryGraph(t, i)})
		if resp.StatusCode != http.StatusOK || body["running"] != true {
			cp1.stop()
			t.Fatalf("deploy %d: %d %v", i, resp.StatusCode, body)
		}
	}
	// A duplicate POST must not double-admit: same epoch, same usage.
	epochBefore := cp1.env.View.Epoch()
	if resp, body := doJSON(t, "POST", cp1.ts.URL+"/v1/intents?wait=30s", tok,
		map[string]any{"graph": recoveryGraph(t, 0)}); resp.StatusCode != http.StatusOK {
		cp1.stop()
		t.Fatalf("duplicate post: %d %v", resp.StatusCode, body)
	}
	if got := cp1.env.View.Epoch(); got != epochBefore {
		cp1.stop()
		t.Fatalf("duplicate POST moved the view epoch %d → %d: double admission", epochBefore, got)
	}

	fp1 := cp1.env.View.Fingerprint()
	ep1 := cp1.env.View.Epoch()
	cpu1, mem1, bw1, svc1 := cp1.gate.Usage("acme")
	if svc1 != n {
		cp1.stop()
		t.Fatalf("gate tracks %d services before crash, want %d", svc1, n)
	}
	cp1.crash(t, dir)

	cp2 := startControlPlane(t, dir, n)
	defer cp2.stop()
	replayed, torn := cp2.store.Replayed()
	if !torn {
		t.Error("torn WAL tail not detected on recovery")
	}
	// tenant + n intents at minimum (sequence also includes nothing
	// else — resync was off).
	if replayed < n+1 {
		t.Errorf("replayed %d WAL records, want >= %d", replayed, n+1)
	}
	if got := len(cp2.store.Intents("acme")); got != n {
		t.Fatalf("recovered %d intents, want %d", got, n)
	}
	if cp2.store.tenantByToken(tok) == nil {
		t.Fatal("tenant token lost across crash")
	}

	cp2.awaitRunning(t, n)

	fp2 := cp2.env.View.Fingerprint()
	ep2 := cp2.env.View.Epoch()
	if fp2 != fp1 {
		t.Errorf("recovered view fingerprint diverged:\n pre-crash %s\n recovered %s", fp1, fp2)
	}
	if ep2 != ep1 {
		t.Errorf("recovered view epoch = %d, want %d (same commit count from fresh view)", ep2, ep1)
	}
	cpu2, mem2, bw2, svc2 := cp2.gate.Usage("acme")
	if cpu2 != cpu1 || mem2 != mem1 || bw2 != bw1 || svc2 != svc1 {
		t.Errorf("recovered quota usage = (%v,%v,%v,%v), want (%v,%v,%v,%v)",
			cpu2, mem2, bw2, svc2, cpu1, mem1, bw1, svc1)
	}
}

// TestCrashRecoveryKeepsQuotaMetered fills a tenant's quota, crashes, and
// restarts: the intents the reconciler re-admits from the WAL must be
// charged to the tenant exactly as before the crash, so the quota still
// refuses one more. A reconciler started before the gate knows the stored
// tenants admits them unmetered — usage reads zero and the extra intent
// gets in.
func TestCrashRecoveryKeepsQuotaMetered(t *testing.T) {
	dir := t.TempDir()
	const n = 3

	cp1 := startControlPlane(t, dir, n+1)
	tok := createTenant(t, cp1.ts.URL, "root", "acme", Quota{Services: n})
	for i := 0; i < n; i++ {
		if resp, body := doJSON(t, "POST", cp1.ts.URL+"/v1/intents?wait=30s", tok,
			map[string]any{"graph": recoveryGraph(t, i)}); resp.StatusCode != http.StatusOK || body["running"] != true {
			cp1.stop()
			t.Fatalf("deploy %d: %d %v", i, resp.StatusCode, body)
		}
	}
	cpu1, mem1, bw1, svc1 := cp1.gate.Usage("acme")
	if svc1 != n {
		cp1.stop()
		t.Fatalf("gate tracks %d services before crash, want %d", svc1, n)
	}
	cp1.crash(t, dir)

	cp2 := startControlPlane(t, dir, n+1)
	defer cp2.stop()
	cp2.awaitRunning(t, n)
	if cpu2, mem2, bw2, svc2 := cp2.gate.Usage("acme"); cpu2 != cpu1 || mem2 != mem1 || bw2 != bw1 || svc2 != svc1 {
		t.Errorf("recovered quota usage = (%v,%v,%v,%v), want (%v,%v,%v,%v)",
			cpu2, mem2, bw2, svc2, cpu1, mem1, bw1, svc1)
	}
	if resp, body := doJSON(t, "POST", cp2.ts.URL+"/v1/intents?wait=30s", tok,
		map[string]any{"graph": recoveryGraph(t, n)}); resp.StatusCode != http.StatusForbidden {
		t.Errorf("intent %d past a quota of %d services: %d %v, want 403", n+1, n, resp.StatusCode, body)
	}
}

// TestCrashMidReconcileConverges kills the daemon after an intent is
// durable but before the reconciler acted on it (the narrowest
// possible crash window); the restart must pick it up from the WAL
// alone and converge it.
func TestCrashMidReconcileConverges(t *testing.T) {
	dir := t.TempDir()
	const n = 2

	cp1 := startControlPlane(t, dir, n)
	tok := createTenant(t, cp1.ts.URL, "root", "acme", Quota{})
	// First intent fully converges...
	if resp, _ := doJSON(t, "POST", cp1.ts.URL+"/v1/intents?wait=30s", tok,
		map[string]any{"graph": recoveryGraph(t, 0)}); resp.StatusCode != http.StatusOK {
		cp1.stop()
		t.Fatal("deploy 0")
	}
	// ...then the reconciler "dies" (crash takes its goroutines first)
	// and one more intent lands durably with nobody to act on it.
	cp1.rec.Stop()
	if resp, _ := doJSON(t, "POST", cp1.ts.URL+"/v1/intents", tok,
		map[string]any{"graph": recoveryGraph(t, 1)}); resp.StatusCode != http.StatusAccepted {
		cp1.stop()
		t.Fatal("deploy 1 not accepted")
	}
	if cp1.rec.Backend.Running("acme/svc1") {
		cp1.stop()
		t.Fatal("test premise broken: svc1 deployed before crash")
	}
	cp1.crash(t, dir)

	cp2 := startControlPlane(t, dir, n)
	defer cp2.stop()
	cp2.rec.Await(60*time.Second, func() bool {
		return cp2.rec.Backend.Running("acme/svc0") && cp2.rec.Backend.Running("acme/svc1")
	})
	for _, id := range []string{"acme/svc0", "acme/svc1"} {
		if !cp2.rec.Backend.Running(id) {
			t.Errorf("%s not converged after mid-reconcile crash (last error: %s)", id, cp2.rec.LastError(id))
		}
	}
}
