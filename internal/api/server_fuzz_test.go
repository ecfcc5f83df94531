package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// fuzzStack is the daemon's HTTP stack over the fake backend and a
// WAL-backed store holding one tenant, "acme", with a quota.
type fuzzStack struct {
	h     http.Handler
	store *Store
	token string
}

func newFuzzStack(t *testing.T) *fuzzStack {
	t.Helper()
	gate := NewQuotaGate()
	srv, _, rec, _ := testServer(t, ServerConfig{Gate: gate, Catalog: catalog.Default()})
	tn, err := rec.Store.CreateTenant("acme", Quota{CPU: 4, Mem: 4096, Services: 3})
	if err != nil {
		t.Fatal(err)
	}
	gate.SetTenant(tn)
	return &fuzzStack{h: srv.Handler(), store: rec.Store, token: tn.Token}
}

// do sends one request through the handler and checks what every
// answer must hold: no 5xx, and a 4xx leaves the store and its WAL as
// they were. It returns the status and the decoded body.
func (fs *fuzzStack) do(t *testing.T, path, token string, body []byte) (int, map[string]any) {
	t.Helper()
	before, walBefore := storeState(t, fs.store), walSize(t, fs.store)
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	rr := httptest.NewRecorder()
	fs.h.ServeHTTP(rr, req)
	if rr.Code >= 500 {
		t.Fatalf("POST %s %q: %d %s", path, body, rr.Code, rr.Body)
	}
	if rr.Code >= 400 {
		if after := storeState(t, fs.store); after != before {
			t.Fatalf("POST %s %q: %d stored state:\nbefore %s\nafter  %s", path, body, rr.Code, before, after)
		}
		if n := walSize(t, fs.store); n != walBefore {
			t.Fatalf("POST %s %q: %d grew the WAL from %d to %d bytes", path, body, rr.Code, walBefore, n)
		}
	}
	var out map[string]any
	json.Unmarshal(rr.Body.Bytes(), &out)
	return rr.Code, out
}

func walSize(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(s.walPath())
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// FuzzPostIntentBody sends fuzzed bodies to POST /v1/intents. No body
// may panic the handler or answer 5xx; a 4xx stores nothing; an
// accepted intent's stored graph re-parses to itself, the canonical form
// of the graph that was posted. Seeds: testdata/fuzz.
func FuzzPostIntentBody(f *testing.F) {
	chain, err := sg.NewChainGraph("web", "firewall", "monitor").ToJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"graph":` + string(chain) + `}`))
	f.Add([]byte(`{"graph":{"name":"x","saps":[{"id":"a"},{"id":"b"}],"links":[{"id":"l","src":{"node":"a"},"dst":{"node":"b"}}]}}`))
	f.Add([]byte(`{"graph":{"name":"a/b"}}`))
	f.Add([]byte(`{"graph":null}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fs := newFuzzStack(t)
		code, out := fs.do(t, "/v1/intents", fs.token, body)
		if code >= 300 {
			return
		}
		id, _ := out["id"].(string)
		stored := fs.store.Intent(id)
		if stored == nil {
			t.Fatalf("%d for %q, but no intent %q is stored", code, body, id)
		}
		var req postIntentReq
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%d for a body that does not decode: %v", code, err)
		}
		// The stored graph is the posted one under its tenant-qualified
		// name.
		g, err := sg.FromJSON(req.Graph)
		if err != nil {
			t.Fatalf("%d for a graph that does not parse: %v", code, err)
		}
		g.Name = id
		raw, err := g.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		_, posted, postedHash, err := CanonicalGraph(raw)
		if err != nil {
			t.Fatalf("%d for a graph that does not canonicalize: %v", code, err)
		}
		_, again, hash, err := CanonicalGraph(stored.Graph)
		if err != nil {
			t.Fatalf("stored graph of %s does not re-parse: %v", id, err)
		}
		if !bytes.Equal(again, stored.Graph) || !bytes.Equal(again, posted) || hash != postedHash || hash != stored.Hash {
			t.Fatalf("stored graph of %s is not the posted graph's canonical form:\nstored %s\nagain  %s\nposted %s", id, stored.Graph, again, posted)
		}
	})
}

// FuzzCreateTenantBody sends fuzzed bodies to POST /v1/tenants. No body
// may panic the handler or answer 5xx; a 4xx stores nothing; a created
// tenant is stored under its name with a quota that validates. Seeds:
// testdata/fuzz.
func FuzzCreateTenantBody(f *testing.F) {
	f.Add([]byte(`{"name":"globex","quota":{"cpu":2,"mem":1024,"bw":1e9,"services":4}}`))
	f.Add([]byte(`{"name":"acme"}`))
	f.Add([]byte(`{"name":"a b"}`))
	f.Add([]byte(`{"name":"x","quota":{"cpu":-1}}`))
	f.Add([]byte(`{"name":"x","quota":{"cpu":0.0000001}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fs := newFuzzStack(t)
		code, out := fs.do(t, "/v1/tenants", "root", body)
		if code >= 300 {
			return
		}
		name, _ := out["name"].(string)
		var stored *Tenant
		for _, tn := range fs.store.Tenants() {
			if tn.Name == name {
				stored = tn
			}
		}
		if stored == nil || name == "acme" {
			t.Fatalf("%d for %q, but tenant %q is not stored once", code, body, name)
		}
		if err := stored.Quota.validate(); err != nil {
			t.Fatalf("tenant %q stored with a quota that does not validate: %v", name, err)
		}
	})
}
