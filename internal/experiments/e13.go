package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"escape/internal/api"
	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

// e13Stack is one running control-plane instance: embedded ESCAPE
// environment, durable intent store, quota gate wired into the
// resource view, reconciler and the HTTP API in front.
type e13Stack struct {
	env   *core.Environment
	store *api.Store
	gate  *api.QuotaGate
	rec   *api.Reconciler
	ts    *httptest.Server
}

// e13Start boots a stack against dataDir. The substrate is sized so
// admission never rejects the full tenant load (each monitor costs
// 0.1 CPU / 32 MB from the catalog).
func e13Start(dataDir string, tenants, intentsPer, chainLen int) (*e13Stack, error) {
	nfs := tenants * intentsPer * chainLen
	spec := core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: float64(nfs)*0.1/2 + 1, Mem: nfs*32/2 + 256},
			"ee2": {Switch: "s2", CPU: float64(nfs)*0.1/2 + 1, Mem: nfs*32/2 + 256},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
	for i := 0; i < tenants*intentsPer; i++ {
		spec.Hosts[fmt.Sprintf("h%da", i)] = "s1"
		spec.Hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	env, err := core.StartEnvironment(spec)
	if err != nil {
		return nil, err
	}
	gate := api.NewQuotaGate()
	env.View.SetCommitGate(gate)
	store, err := api.OpenStore(dataDir)
	if err != nil {
		env.Close()
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	backend := &api.CoreBackend{Orch: env.Orch}
	rec := &api.Reconciler{Store: store, Backend: backend, Workers: 4, Resync: 250 * time.Millisecond, Log: quiet}
	// NewServer seeds the quota gate with the stored tenants; the
	// reconciler must not admit replayed intents before that.
	srv := api.NewServer(api.ServerConfig{
		Store: store, Backend: backend, Reconciler: rec, Gate: gate,
		Catalog: catalog.Default(), AdminToken: "root", Log: quiet,
	})
	rec.Start()
	return &e13Stack{env: env, store: store, gate: gate, rec: rec, ts: httptest.NewServer(srv.Handler())}, nil
}

// crash tears the stack down with no snapshot and no graceful
// undeploy — the kill -9 equivalent.
func (s *e13Stack) crash() {
	s.ts.Close()
	s.rec.Stop()
	s.env.Close()
	s.store.Close()
}

// e13Call performs one authenticated intent write. The API acknowledges
// every write E13 makes (POST, DELETE) with 202 Accepted; any other
// status is an error.
func (s *e13Stack) e13Call(method, path, token string, body any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("experiments: E13 %s %s returned %d, want %d", method, path, resp.StatusCode, http.StatusAccepted)
	}
	return nil
}

func e13TenantName(t int) string { return fmt.Sprintf("t%d", t) }

// e13Graph builds tenant t's i-th monitor chain over its dedicated
// host pair (pair index is globally unique so chains never share SAPs).
func e13Graph(t, i, intentsPer, chainLen int) map[string]any {
	types := make([]string, chainLen)
	for k := range types {
		types[k] = "monitor"
	}
	g := sg.NewChainGraph(fmt.Sprintf("svc%d", i), types...)
	pair := t*intentsPer + i
	g.SAPs[0].ID = fmt.Sprintf("h%da", pair)
	g.SAPs[1].ID = fmt.Sprintf("h%db", pair)
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	raw, _ := g.ToJSON()
	return map[string]any{"graph": json.RawMessage(raw)}
}

// e13AwaitRunning blocks until every tenant service is running.
func (s *e13Stack) e13AwaitRunning(tenants, intentsPer int, timeout time.Duration) error {
	allRunning := func() bool {
		for t := 0; t < tenants; t++ {
			for i := 0; i < intentsPer; i++ {
				if !s.rec.Backend.Running(api.ServiceName(e13TenantName(t), fmt.Sprintf("svc%d", i))) {
					return false
				}
			}
		}
		return true
	}
	if !s.rec.Await(timeout, allRunning) {
		return fmt.Errorf("experiments: E13 convergence timed out after %s", timeout)
	}
	return nil
}

// e13UsageMatch checks the quota gate's committed totals against the
// catalog demand of every tenant's full intent set. Totals — not
// per-EE placements — are the recovery contract here: the bit-exact
// fingerprint + epoch equality check lives in the api recovery test,
// where reconciliation is forced single-threaded.
func (s *e13Stack) e13UsageMatch(tenants, intentsPer, chainLen int) bool {
	mon, _ := catalog.Default().Lookup("monitor")
	nfs := intentsPer * chainLen
	for t := 0; t < tenants; t++ {
		cpu, mem, _, svcs := s.gate.Usage(e13TenantName(t))
		if cpu != sg.CPU(nfs)*mon.DefaultCPU || mem != nfs*mon.DefaultMem || svcs != intentsPer {
			return false
		}
	}
	return true
}

// e13Populate creates every tenant, then POSTs every tenant's intents,
// one goroutine per tenant, and returns the tenants' tokens: the load
// the churn phase starts from and the work a cold start has to redo.
func (s *e13Stack) e13Populate(tenants, intentsPer, chainLen int) ([]string, error) {
	tokens := make([]string, tenants)
	for t := range tokens {
		quota := api.Quota{
			CPU:      float64(intentsPer*chainLen) * 0.1,
			Mem:      intentsPer * chainLen * 32,
			Services: intentsPer,
		}
		tn, err := s.store.CreateTenant(e13TenantName(t), quota)
		if err != nil {
			return nil, err
		}
		s.gate.SetTenant(tn)
		tokens[t] = tn.Token
	}
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for t := range tokens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < intentsPer && errs[t] == nil; i++ {
				errs[t] = s.e13Call("POST", "/v1/intents", tokens[t], e13Graph(t, i, intentsPer, chainLen))
			}
		}()
	}
	wg.Wait()
	return tokens, errors.Join(errs...)
}

// yesno renders a stable label cell for a boolean check.
func yesno(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// e13ControlPlane runs the escaped control plane under concurrent
// tenant churn and across a crash: tenants POST, DELETE and re-POST
// durable intents through the HTTP API while the reconciler converges
// the substrate; then the whole stack is killed without cleanup and
// restarted, timing WAL-replay recovery against a cold start that has
// to re-create every tenant and re-POST every intent. Every row checks
// that the recovered view matches the intent set.
func e13ControlPlane(tenants, intentsPer, chainLen int) (*Table, error) {
	tbl := &Table{
		ID: "E13",
		Title: fmt.Sprintf("Control-plane churn + crash recovery: %d tenants × %d intents, %d-NF chains",
			tenants, intentsPer, chainLen),
		Columns: []string{"phase", "tenants", "intents", "recover_ms", "view_match"},
		Notes: []string{
			"churn: concurrent POST of every intent, then DELETE + re-POST of each tenant's first intent",
			"view_match: per-tenant committed quota totals equal the catalog demand of the intent set",
			"recover_ms: wal-replay restarts from the log with zero API traffic; cold-start re-creates tenants and re-POSTs every intent",
		},
	}
	addRow := func(s *e13Stack, phase, recoverMS string) {
		tbl.addRow(phase, fmt.Sprint(tenants), fmt.Sprint(tenants*intentsPer), recoverMS,
			yesno(s.e13UsageMatch(tenants, intentsPer, chainLen)))
	}
	settle := func(s *e13Stack, err error) error {
		if err == nil {
			err = s.e13AwaitRunning(tenants, intentsPer, 2*time.Minute)
		}
		if err != nil {
			s.crash()
		}
		return err
	}

	dataDir, err := os.MkdirTemp("", "escape-e13")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	// Phase 1: churn. Every tenant's intents go in concurrently with the
	// others'; then every tenant deletes its first intent and posts it
	// back, which leaves forget-then-put records in the WAL that the
	// wal-replay phase has to replay.
	s, err := e13Start(dataDir, tenants, intentsPer, chainLen)
	if err != nil {
		return nil, err
	}
	tokens, err := s.e13Populate(tenants, intentsPer, chainLen)
	if err := settle(s, err); err != nil {
		return nil, err
	}
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for t := range tokens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := api.ServiceName(e13TenantName(t), "svc0")
			if errs[t] = s.e13Call("DELETE", "/v1/intents/svc0", tokens[t], nil); errs[t] != nil {
				return
			}
			s.rec.Await(time.Minute, func() bool { return s.store.Intent(id) == nil })
			errs[t] = s.e13Call("POST", "/v1/intents", tokens[t], e13Graph(t, 0, intentsPer, chainLen))
		}()
	}
	wg.Wait()
	if err := settle(s, errors.Join(errs...)); err != nil {
		return nil, err
	}
	addRow(s, "churn", "-")

	// Phase 2: kill -9 and WAL-replay recovery on the same data dir.
	s.crash()
	t0 := time.Now()
	s, err = e13Start(dataDir, tenants, intentsPer, chainLen)
	if err != nil {
		return nil, err
	}
	if err := settle(s, nil); err != nil {
		return nil, err
	}
	addRow(s, "wal-replay", ms(time.Since(t0)))
	s.crash()

	// Phase 3: cold-start baseline on an empty data dir — the work the
	// WAL saves: tenant creation plus every intent POSTed again.
	coldDir, err := os.MkdirTemp("", "escape-e13-cold")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(coldDir)
	t0 = time.Now()
	s, err = e13Start(coldDir, tenants, intentsPer, chainLen)
	if err != nil {
		return nil, err
	}
	_, err = s.e13Populate(tenants, intentsPer, chainLen)
	if err := settle(s, err); err != nil {
		return nil, err
	}
	addRow(s, "cold-start", ms(time.Since(t0)))
	s.crash()
	return tbl, nil
}
