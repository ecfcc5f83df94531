// Controlplane demonstrates the escaped multi-tenant control plane
// end to end, in process: it boots an ESCAPE environment with the
// HTTP/JSON API on top, creates a quota-limited tenant, deploys a
// service chain by POSTing a durable intent, shows that a duplicate
// POST is answered idempotently (no double admission), drives a quota
// rejection, and finally kills the daemon without cleanup to show WAL
// replay restoring the exact committed view on restart.
//
//	go run ./examples/controlplane
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"escape/internal/api"
	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

type stack struct {
	env   *core.Environment
	store *api.Store
	gate  *api.QuotaGate
	rec   *api.Reconciler
	ts    *httptest.Server
}

func start(dataDir string) (*stack, error) {
	env, err := core.StartEnvironment(core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 4, Mem: 2048},
			"ee2": {Switch: "s2", CPU: 4, Mem: 2048},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	})
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
	rec := &api.Reconciler{Store: store, Backend: backend, Workers: 2, Log: quiet}
	// NewServer seeds the quota gate with the stored tenants; the
	// reconciler must not admit replayed intents before that.
	srv := api.NewServer(api.ServerConfig{
		Store: store, Backend: backend, Reconciler: rec, Gate: gate,
		Catalog: catalog.Default(), AdminToken: "root", Log: quiet,
	})
	rec.Start()
	return &stack{env: env, store: store, gate: gate, rec: rec, ts: httptest.NewServer(srv.Handler())}, nil
}

// crash stops everything without snapshots or graceful teardown.
func (s *stack) crash() {
	s.ts.Close()
	s.rec.Stop()
	s.env.Close()
	s.store.Close()
}

func call(method, url, token string, body any) (int, map[string]any) {
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, _ := http.NewRequest(method, url, rd)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func chain(name string, nfs ...string) map[string]any {
	g := sg.NewChainGraph(name, nfs...)
	g.SAPs[0].ID, g.SAPs[1].ID = "h1", "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	raw, _ := g.ToJSON()
	return map[string]any{"graph": json.RawMessage(raw)}
}

func main() {
	dataDir, err := os.MkdirTemp("", "escaped-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	s, err := start(dataDir)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== tenant with a 0.5-CPU quota ==")
	code, tenant := call("POST", s.ts.URL+"/v1/tenants", "root",
		map[string]any{"name": "acme", "quota": map[string]any{"cpu": 0.5}})
	fmt.Printf("POST /v1/tenants -> %d (vlan block base %v)\n", code, tenant["vlan_base"])
	token := tenant["token"].(string)

	fmt.Println("\n== durable intent: monitor->monitor chain ==")
	code, in := call("POST", s.ts.URL+"/v1/intents?wait=30s", token, chain("web", "monitor", "monitor"))
	fmt.Printf("POST /v1/intents -> %d running=%v\n", code, in["running"])

	fmt.Println("\n== duplicate POST is idempotent ==")
	epoch := s.env.View.Epoch()
	code, _ = call("POST", s.ts.URL+"/v1/intents?wait=30s", token, chain("web", "monitor", "monitor"))
	fmt.Printf("POST again -> %d, view epoch %d -> %d (no double admission)\n",
		code, epoch, s.env.View.Epoch())

	fmt.Println("\n== quota enforcement at admission ==")
	code, errBody := call("POST", s.ts.URL+"/v1/intents", token, chain("big", "monitor", "monitor", "monitor", "monitor"))
	fmt.Printf("POST over-quota chain -> %d (%v)\n", code, errBody["error"])

	fp := s.env.View.Fingerprint()
	cpu, mem, _, svcs := s.gate.Usage("acme")
	fmt.Printf("\ncommitted before crash: %v cpu / %d MB over %d service(s)\nview fingerprint %s…\n",
		cpu, mem, svcs, fp[:16])

	fmt.Println("\n== kill -9: no flush, no teardown ==")
	s.crash()

	fmt.Println("== restart: WAL replay + reconciliation ==")
	s2, err := start(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	defer s2.crash()
	n, torn := s2.store.Replayed()
	fmt.Printf("replayed %d WAL records (torn tail: %v)\n", n, torn)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && !s2.rec.Backend.Running("acme/web") {
		time.Sleep(10 * time.Millisecond)
	}
	fp2 := s2.env.View.Fingerprint()
	fmt.Printf("acme/web running again; fingerprint match after recovery: %v\n", fp == fp2)
}
