package sg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewChainGraphShape(t *testing.T) {
	g := NewChainGraph("svc", "firewall", "nat")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.SAPs) != 2 || len(g.NFs) != 2 || len(g.Links) != 3 {
		t.Fatalf("shape = %d saps %d nfs %d links", len(g.SAPs), len(g.NFs), len(g.Links))
	}
	chains, err := g.Chains()
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %d", len(chains))
	}
	if chains[0].String() != "sap1 -> nf1 -> nf2 -> sap2" {
		t.Errorf("chain = %s", chains[0])
	}
	if len(chains[0].Links) != 3 {
		t.Errorf("chain links = %d", len(chains[0].Links))
	}
}

func TestEmptyChainGraph(t *testing.T) {
	g := NewChainGraph("direct") // SAP to SAP, no NFs
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	chains, err := g.Chains()
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || len(chains[0].Nodes) != 2 {
		t.Fatalf("chains = %+v", chains)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Graph)
		want   string
	}{
		{func(g *Graph) { g.Name = "" }, "needs a name"},
		{func(g *Graph) { g.SAPs = append(g.SAPs, &SAP{ID: "sap1"}) }, "used by both"},
		{func(g *Graph) { g.NFs[0].ID = "sap1" }, "used by both"},
		{func(g *Graph) { g.NFs[0].Type = "" }, "has no type"},
		{func(g *Graph) { g.NFs[0].CPU = -1 }, "negative resources"},
		{func(g *Graph) { g.Links[0].Dst.Node = "ghost" }, "unknown node"},
		{func(g *Graph) { g.Links[0].Dst.Port = "" }, "needs a port"},
		{func(g *Graph) { g.Links[1].ID = "l1" }, "duplicate link id"},
		{func(g *Graph) { g.Links[0].Bandwidth = -5 }, "negative requirements"},
		{func(g *Graph) { g.NFs[0].CPU = 1e300 }, "whole micro-cores"},
		{func(g *Graph) { g.NFs[0].CPU = math.NaN() }, "whole micro-cores"},
		{func(g *Graph) { g.NFs[0].CPU = math.Inf(1) }, "whole micro-cores"},
		{func(g *Graph) { g.NFs[0].CPU = 0.1234567 }, "whole micro-cores"},
		{func(g *Graph) { g.NFs[0].CPU = 1e-7 }, "whole micro-cores"},
		{func(g *Graph) { g.Links[0].Bandwidth = 1e300 }, "beyond int64"},
		{func(g *Graph) { g.Links[0].Bandwidth = math.Inf(1) }, "beyond int64"},
		{func(g *Graph) {
			g.Reqs = []*Requirement{{ID: "r", From: "sap1", To: "sap2", Bandwidth: math.NaN()}}
		}, "beyond int64"},
		{func(g *Graph) { g.SAPs = append(g.SAPs, &SAP{ID: "lonely"}) }, "not connected"},
		{func(g *Graph) {
			g.Links[0].Src = Endpoint{Node: "nf1", Port: "x"}
			g.Links[0].Dst = Endpoint{Node: "nf1", Port: "in"}
		}, "self-loop"},
	}
	for i, c := range cases {
		g := NewChainGraph("svc", "firewall", "nat")
		c.mutate(g)
		err := g.Validate()
		if err == nil {
			t.Errorf("case %d: validation passed, want %q", i, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error = %q, want substring %q", i, err, c.want)
		}
	}
}

func TestChainsBranching(t *testing.T) {
	// sap1 → lb → {fw1 → sap2, fw2 → sap3}
	g := &Graph{
		Name: "branchy",
		SAPs: []*SAP{{ID: "sap1"}, {ID: "sap2"}, {ID: "sap3"}},
		NFs: []*NF{
			{ID: "lb", Type: "loadbalancer"},
			{ID: "fw1", Type: "firewall"},
			{ID: "fw2", Type: "firewall"},
		},
		Links: []*Link{
			{ID: "l1", Src: Endpoint{Node: "sap1"}, Dst: Endpoint{Node: "lb", Port: "in"}},
			{ID: "l2", Src: Endpoint{Node: "lb", Port: "out"}, Dst: Endpoint{Node: "fw1", Port: "in"}},
			{ID: "l3", Src: Endpoint{Node: "lb", Port: "out"}, Dst: Endpoint{Node: "fw2", Port: "in"}},
			{ID: "l4", Src: Endpoint{Node: "fw1", Port: "out"}, Dst: Endpoint{Node: "sap2"}},
			{ID: "l5", Src: Endpoint{Node: "fw2", Port: "out"}, Dst: Endpoint{Node: "sap3"}},
		},
	}
	chains, err := g.Chains()
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 {
		t.Fatalf("chains = %d", len(chains))
	}
	got := map[string]bool{}
	for _, c := range chains {
		got[c.String()] = true
	}
	if !got["sap1 -> lb -> fw1 -> sap2"] || !got["sap1 -> lb -> fw2 -> sap3"] {
		t.Errorf("chains = %v", got)
	}
}

func TestChainsCycleDetected(t *testing.T) {
	g := NewChainGraph("svc", "firewall")
	// Add a back edge nf1.out → nf1.in through a second link.
	g.Links = append(g.Links, &Link{
		ID:  "back",
		Src: Endpoint{Node: "nf1", Port: "out"},
		Dst: Endpoint{Node: "nf1", Port: "in"},
	})
	if err := g.Validate(); err == nil {
		// self-loop caught by Validate; build a 2-NF cycle instead.
		t.Fatal("self loop not caught")
	}
	g2 := NewChainGraph("svc", "firewall", "nat")
	g2.Links = append(g2.Links, &Link{
		ID:  "back",
		Src: Endpoint{Node: "nf2", Port: "out"},
		Dst: Endpoint{Node: "nf1", Port: "in"},
	})
	if _, err := g2.Chains(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle error = %v", err)
	}
}

func TestChainsDeadEnd(t *testing.T) {
	g := NewChainGraph("svc", "firewall")
	g.Links = g.Links[:1] // drop nf1 → sap2
	g.SAPs = g.SAPs[:1]   // drop sap2 so validation passes
	if _, err := g.Chains(); err == nil || !strings.Contains(err.Error(), "dead-end") {
		t.Errorf("dead-end error = %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := NewChainGraph("svc", "headerCompressor", "headerDecompressor")
	g.NFs[0].Params = map[string]string{"REFRESH": "16"}
	g.NFs[0].CPU = 0.7
	g.Links[1].Bandwidth = 5e6
	g.Links[1].MaxDelay = 20 * time.Millisecond
	data, err := g.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "svc" || len(back.NFs) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.NFs[0].Params["REFRESH"] != "16" || back.NFs[0].CPU != 0.7 {
		t.Errorf("nf = %+v", back.NFs[0])
	}
	if back.Links[1].Bandwidth != 5e6 || back.Links[1].MaxDelay != 20*time.Millisecond {
		t.Errorf("link = %+v", back.Links[1])
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Error("bad json accepted")
	}
	if _, err := FromJSON([]byte(`{"name":"x","saps":[{"id":"s"}],"nfs":[],"links":[]}`)); err == nil {
		t.Error("disconnected SAP accepted")
	}
}

func TestLookupHelpers(t *testing.T) {
	g := NewChainGraph("svc", "firewall")
	if g.SAP("sap1") == nil || g.SAP("zzz") != nil {
		t.Error("SAP lookup broken")
	}
	if g.NF("nf1") == nil || g.NF("sap1") != nil {
		t.Error("NF lookup broken")
	}
	if g.Link("l1") == nil || g.Link("zz") != nil {
		t.Error("Link lookup broken")
	}
}

// Property: NewChainGraph(n types) always validates and yields exactly one
// chain with n+2 nodes.
func TestQuickChainGraph(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n % 10)
		types := make([]string, k)
		for i := range types {
			types[i] = "monitor"
		}
		g := NewChainGraph("q", types...)
		if g.Validate() != nil {
			return false
		}
		chains, err := g.Chains()
		if err != nil || len(chains) != 1 {
			return false
		}
		return len(chains[0].Nodes) == k+2 && len(chains[0].Links) == k+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
