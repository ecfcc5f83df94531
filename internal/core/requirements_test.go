package core

import (
	"strings"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// reqGraph is a 2-NF chain with one end-to-end requirement attached.
func reqGraph(maxDelay time.Duration, bw float64) *sg.Graph {
	g := sg.NewChainGraph("req-svc", "monitor", "monitor")
	g.Reqs = []*sg.Requirement{{
		ID: "r1", From: "sap1", To: "sap2", MaxDelay: maxDelay, Bandwidth: bw,
	}}
	return g
}

func TestE2EDelayRequirementEnforced(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 4, Mem: 4096}}
	cat := catalog.Default()
	for _, m := range allMappers() {
		// Substrate: each trunk adds 5 ms. Chain sap1→…→sap2 crosses one
		// trunk at minimum → ≥5ms total. A 1 ms bound must fail…
		rv := syntheticView(2, ees, 0, 5*time.Millisecond)
		if _, err := m.Map(reqGraph(time.Millisecond, 0), rv); err == nil {
			t.Errorf("%s: violated e2e delay bound accepted", m.MapperName())
		} else if !strings.Contains(err.Error(), "r1") && !strings.Contains(err.Error(), "feasible") {
			t.Errorf("%s: unexpected error %v", m.MapperName(), err)
		}
		// …and a 100 ms bound must pass.
		rv2 := syntheticView(2, ees, 0, 5*time.Millisecond)
		if _, err := m.Map(reqGraph(100*time.Millisecond, 0), rv2); err != nil {
			t.Errorf("%s: feasible e2e bound rejected: %v", m.MapperName(), err)
		}
		_ = cat
	}
}

func TestE2EBandwidthRequirementRaisesDemands(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 4, Mem: 4096}}
	cat := catalog.Default()
	// Trunk capacity 10 Mbps; requirement demands 8 Mbps on every chain
	// link. The first request fits; the second must be rejected even
	// though the SG links themselves carry no demand.
	rv := syntheticView(2, ees, 10e6, 0)
	gm := &GreedyMapper{Catalog: cat}
	m1, err := gm.Map(reqGraph(0, 8e6), rv)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Demands["l3"] != 8e6 {
		t.Errorf("effective demand = %v, want 8e6", m1.Demands["l3"])
	}
	rv.Commit(m1)
	g2 := reqGraph(0, 8e6)
	g2.Name = "req-svc-2"
	if _, err := gm.Map(g2, rv); err == nil {
		t.Error("second 8Mbps chain fit on a 10Mbps trunk")
	}
	// Releasing the first frees the trunk again.
	rv.Release(m1)
	if _, err := gm.Map(g2, rv); err != nil {
		t.Errorf("release did not free requirement bandwidth: %v", err)
	}
}

func TestRequirementValidation(t *testing.T) {
	g := sg.NewChainGraph("v", "monitor")
	cases := []struct {
		req  sg.Requirement
		want string
	}{
		{sg.Requirement{From: "sap1", To: "sap2", MaxDelay: time.Second}, "empty id"},
		{sg.Requirement{ID: "r", From: "nf1", To: "sap2", MaxDelay: time.Second}, "must be SAPs"},
		{sg.Requirement{ID: "r", From: "sap1", To: "sap2"}, "constrains nothing"},
		{sg.Requirement{ID: "r", From: "sap1", To: "sap2", MaxDelay: -time.Second}, "negative"},
	}
	for _, c := range cases {
		g.Reqs = []*sg.Requirement{&c.req}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("req %+v: err = %v, want %q", c.req, err, c.want)
		}
	}
	// Duplicate ids.
	g.Reqs = []*sg.Requirement{
		{ID: "r", From: "sap1", To: "sap2", MaxDelay: time.Second},
		{ID: "r", From: "sap1", To: "sap2", MaxDelay: time.Second},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate requirement") {
		t.Errorf("duplicate req err = %v", err)
	}
}

func TestRequirementMatchesNoChain(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 4, Mem: 4096}}
	rv := syntheticView(2, ees, 0, 0)
	g := sg.NewChainGraph("v", "monitor")
	// Reverse direction: no chain runs sap2 → sap1.
	g.Reqs = []*sg.Requirement{{ID: "r", From: "sap2", To: "sap1", MaxDelay: time.Second}}
	if _, err := (&GreedyMapper{Catalog: catalog.Default()}).Map(g, rv); err == nil ||
		!strings.Contains(err.Error(), "matches no chain") {
		t.Errorf("err = %v", err)
	}
}

func TestRequirementDeployEndToEnd(t *testing.T) {
	spec := demoSpec()
	spec.Trunks = []TrunkSpec{{A: "s1", B: "s2", Bandwidth: 100e6, Delay: 2 * time.Millisecond}}
	env := startEnv(t, spec)
	g := sapGraph("req-e2e", "monitor")
	g.Reqs = []*sg.Requirement{{ID: "r1", From: "h1", To: "h2", MaxDelay: 50 * time.Millisecond, Bandwidth: 5e6}}
	if _, err := env.Orch.Deploy(g); err != nil {
		t.Fatal(err)
	}
	// A too-tight delay bound is rejected at deploy time.
	g2 := sapGraph("req-tight", "monitor")
	g2.Reqs = []*sg.Requirement{{ID: "r1", From: "h1", To: "h2", MaxDelay: time.Microsecond}}
	if _, err := env.Orch.Deploy(g2); err == nil {
		t.Error("microsecond bound over a 2ms trunk deployed")
	}
}

// TestHealRequirementRefusedByAdmitHeal: a heal must not commit what the
// service's mapper would refuse. On a 5 ms line sw1–sw2–sw3 with a spur
// sw1–sw4, a 2-NF chain sap1(sw1)→sap2(sw3) bounded at 12 ms maps onto
// ee1 on sw1 (10 ms). With ee1 masked, the only survivor is ee2 on the
// spur, 20 ms end to end: AdmitHeal must refuse, naming the requirement,
// and leave the view as it was.
func TestHealRequirementRefusedByAdmitHeal(t *testing.T) {
	ees := map[string]EESpec{
		"ee1": {Switch: "sw1", CPU: 4, Mem: 4096},
		"ee2": {Switch: "sw4", CPU: 4, Mem: 4096},
	}
	for _, mapper := range allMappers() {
		rv := syntheticView(3, ees, 0, 5*time.Millisecond)
		rv.Switches["sw4"] = 4
		rv.Links = append(rv.Links, &LinkRes{A: "sw1", B: "sw4", PortA: 12, PortB: 10, Delay: 5 * time.Millisecond})
		m, err := rv.AdmitAndCommit(mapper, reqGraph(12*time.Millisecond, 0))
		if err != nil {
			t.Fatalf("%s: %v", mapper.MapperName(), err)
		}
		for nf, ee := range m.Placements {
			if ee != "ee1" {
				t.Fatalf("%s: NF %s placed on %s, want ee1", mapper.MapperName(), nf, ee)
			}
		}
		rv.ExcludeEE("ee1")
		before := rv.Snapshot().FreeCPU("ee2")
		plan, err := rv.AdmitHeal(m, rv.ExcludedEE, rv.ExcludedLink)
		if err == nil {
			t.Fatalf("%s: heal committed moves %v and routes %v past a 12ms bound", mapper.MapperName(), plan.Moved, plan.Routes)
		}
		if !strings.Contains(err.Error(), `requirement "r1"`) {
			t.Errorf("%s: heal refused without naming the requirement: %v", mapper.MapperName(), err)
		}
		if after := rv.Snapshot().FreeCPU("ee2"); after != before {
			t.Errorf("%s: refused heal changed ee2's free CPU %v → %v", mapper.MapperName(), before, after)
		}
	}
}
