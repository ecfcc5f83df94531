package api

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/sg"
	"escape/internal/vnfagent"
)

// TestOutOfRangeDemandIs400: a graph whose NF demand cannot be counted in
// whole micro-cores is an invalid graph, whatever the tenant's quota.
func TestOutOfRangeDemandIs400(t *testing.T) {
	_, ts, _, fb := testServer(t, ServerConfig{Gate: NewQuotaGate(), Catalog: catalog.Default()})
	tok := createTenant(t, ts.URL, "root", "acme", Quota{Services: 5}) // no CPU quota
	for i, cpu := range []string{"1e300", "0.1234567", "1e-7"} {
		body := map[string]any{"graph": json.RawMessage(`{"name":"huge` + fmt.Sprint(i) + `","saps":[{"id":"a"},{"id":"b"}],` +
			`"nfs":[{"id":"n","type":"monitor","cpu":` + cpu + `}],` +
			`"links":[{"id":"l1","src":{"node":"a"},"dst":{"node":"n","port":"in"}},` +
			`{"id":"l2","src":{"node":"n","port":"out"},"dst":{"node":"b"}}]}`)}
		if resp, out := doJSON(t, "POST", ts.URL+"/v1/intents", tok, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cpu %s: %d %v, want 400", cpu, resp.StatusCode, out)
		}
	}
	if n := fb.deployCount(); n != 0 {
		t.Errorf("%d deploys reached the backend", n)
	}
}

// TestTenantQuotaOutOfRangeIs400: a negative or out-of-range quota is
// refused; zero stays unlimited.
func TestTenantQuotaOutOfRangeIs400(t *testing.T) {
	_, ts, _, _ := testServer(t, ServerConfig{})
	for i, q := range []Quota{{CPU: -1}, {BW: -5}, {Mem: -1}, {Services: -1}, {CPU: 1e300}, {BW: 1e300}} {
		req := createTenantReq{Name: fmt.Sprintf("t%d", i), Quota: q}
		if resp, out := doJSON(t, "POST", ts.URL+"/v1/tenants", "root", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("quota %+v: %d %v, want 400", q, resp.StatusCode, out)
		}
	}
	createTenant(t, ts.URL, "root", "ok", Quota{CPU: 0.3, BW: 1e9})
}

// cores reads a decimal CPU text as the float64 cores a JSON or topology
// field carries.
func cores(t *testing.T, c sg.CPU) float64 {
	var f float64
	if err := json.Unmarshal([]byte(c.String()), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestUnitBoundaryLayersAgree generates seeded sets of decimal CPU demands
// and a capacity at the exact-fill boundary (the sum, and the sum ± 1
// micro-core), and requires every layer that counts CPU to decide alike:
// the API's quota pre-check, the quota gate, core admission, and the
// agent's initiateVNF on a netem EE.
func TestUnitBoundaryLayersAgree(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	cat := catalog.Default()
	n := netem.New("units", netem.Options{})
	for c := 0; c < 24; c++ {
		demands := make([]sg.CPU, 1+rng.Intn(4))
		var sum sg.CPU
		nfs := make([]string, len(demands))
		for i := range demands {
			demands[i] = sg.CPU(2 + rng.Intn(400_000))
			sum += demands[i]
			nfs[i] = fmt.Sprintf(`{"id":"nf%d","type":"monitor","cpu":%s}`, i, demands[i])
		}
		capacity := sum + sg.CPU(c%3-1)
		want := capacity >= sum
		where := fmt.Sprintf("seed %d case %d: demands %v, capacity %v", seed, c, demands, capacity)

		g, err := sg.FromJSON([]byte(`{"name":"acme/svc","saps":[{"id":"sap1"},{"id":"sap2"}],"nfs":[` +
			strings.Join(nfs, ",") + `],"links":[{"id":"l","src":{"node":"sap1"},"dst":{"node":"sap2"}}]}`))
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		tenant := &Tenant{Name: "acme", Quota: Quota{CPU: cores(t, capacity)}}
		decide := map[string]bool{}

		gate := NewQuotaGate()
		gate.SetTenant(tenant)
		s := &Server{cfg: ServerConfig{Gate: gate, Catalog: cat}}
		decide["api pre-check"] = s.precheckQuota(tenant, g) == nil

		m := &core.Mapping{Graph: g, Placements: map[string]string{}, Catalog: cat}
		for _, nf := range g.NFs {
			m.Placements[nf.ID] = "ee1"
		}
		decide["quota gate"] = gate.Admit(m) == nil

		rv := core.NewResourceView()
		rv.Switches["s1"] = 1
		rv.EEs["ee1"] = &core.EERes{Name: "ee1", CPU: cores(t, capacity), Mem: 1 << 20, Switch: "s1"}
		rv.SAPs["sap1"] = &core.SAPRes{ID: "sap1", Switch: "s1", Port: 1}
		rv.SAPs["sap2"] = &core.SAPRes{ID: "sap2", Switch: "s1", Port: 2}
		_, err = rv.AdmitAndCommit(&core.GreedyMapper{Catalog: cat}, g)
		decide["core admission"] = err == nil

		ee, err := n.AddEE(fmt.Sprintf("ee%d", c), netem.EEConfig{CPU: cores(t, capacity), Mem: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		agent := vnfagent.New(ee, n, cat)
		if err := agent.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		client, err := vnfagent.DialClient(agent.Addr())
		if err != nil {
			t.Fatal(err)
		}
		decide["agent initiateVNF"] = true
		for _, d := range demands {
			if _, err := client.InitiateVNF("monitor", map[string]string{"cpu": d.String()}); err != nil {
				decide["agent initiateVNF"] = false
			}
		}
		client.Close()
		agent.Close()

		for layer, got := range decide {
			if got != want {
				t.Errorf("%s: %s admitted=%v, want %v", where, layer, got, want)
			}
		}
	}
}
