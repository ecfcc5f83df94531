package core

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// syntheticView builds a resource view directly (no emulation): a chain
// of switches sw1—sw2—…—swN, one SAP at each end, EEs as configured.
func syntheticView(nSwitches int, ees map[string]EESpec, linkBW float64, linkDelay time.Duration) *ResourceView {
	rv := newResourceView()
	for i := 1; i <= nSwitches; i++ {
		rv.Switches[swName(i)] = uint64(i)
	}
	for i := 1; i < nSwitches; i++ {
		rv.Links = append(rv.Links, &LinkRes{
			A: swName(i), B: swName(i + 1),
			PortA: 10, PortB: 11,
			Bandwidth: linkBW, Delay: linkDelay,
		})
	}
	rv.SAPs["sap1"] = &SAPRes{ID: "sap1", Switch: swName(1), Port: 1}
	rv.SAPs["sap2"] = &SAPRes{ID: "sap2", Switch: swName(nSwitches), Port: 1}
	for name, spec := range ees {
		rv.EEs[name] = &EERes{Name: name, CPU: spec.CPU, Mem: spec.Mem, Switch: spec.Switch}
	}
	return rv
}

func swName(i int) string {
	return "sw" + string(rune('0'+i))
}

func allMappers() []Mapper {
	cat := catalog.Default()
	return []Mapper{
		&GreedyMapper{Catalog: cat},
		&RandomMapper{Catalog: cat, Seed: 42},
		&BacktrackMapper{Catalog: cat},
		&KSPMapper{Catalog: cat},
	}
}

// checkMappingValid verifies the invariants every mapper must uphold.
func checkMappingValid(t *testing.T, m *Mapping, rv *ResourceView) {
	t.Helper()
	for nfID, ee := range m.Placements {
		if rv.EEs[ee] == nil {
			t.Errorf("NF %q placed on unknown EE %q", nfID, ee)
		}
	}
	// Per-EE demand within capacity.
	cpuUsed := map[string]sg.CPU{}
	memUsed := map[string]int{}
	for nfID, ee := range m.Placements {
		cpu, mem := NFDemand(m.Catalog, m.Graph.NF(nfID))
		cpuUsed[ee] += cpu
		memUsed[ee] += mem
	}
	for ee, used := range cpuUsed {
		if used > capCPU(rv.EEs[ee]) {
			t.Errorf("EE %q CPU oversubscribed: %v > %v", ee, used, rv.EEs[ee].CPU)
		}
		if memUsed[ee] > rv.EEs[ee].Mem {
			t.Errorf("EE %q memory oversubscribed", ee)
		}
	}
	// Routes connect the right attachment switches and follow real links.
	for _, l := range m.Graph.Links {
		route := m.Routes[l.ID]
		if len(route) == 0 {
			t.Errorf("link %q unrouted", l.ID)
			continue
		}
		for i := 0; i+1 < len(route); i++ {
			if rv.linkBetween(route[i], route[i+1]) == nil {
				t.Errorf("link %q route uses non-adjacent %s-%s", l.ID, route[i], route[i+1])
			}
		}
	}
}

func TestAllMappersOnFeasibleChain(t *testing.T) {
	ees := map[string]EESpec{
		"ee1": {Switch: "sw1", CPU: 2, Mem: 1024},
		"ee2": {Switch: "sw3", CPU: 2, Mem: 1024},
	}
	g := sg.NewChainGraph("svc", "firewall", "monitor")
	for _, m := range allMappers() {
		rv := syntheticView(3, ees, 0, 0)
		mapping, err := m.Map(g, rv)
		if err != nil {
			t.Errorf("%s: %v", m.MapperName(), err)
			continue
		}
		if len(mapping.Placements) != 2 || len(mapping.Routes) != 3 {
			t.Errorf("%s: mapping shape %d/%d", m.MapperName(), len(mapping.Placements), len(mapping.Routes))
		}
		checkMappingValid(t, mapping, rv)
	}
}

func TestMappersRejectOversizedNF(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 0.1, Mem: 16}}
	g := sg.NewChainGraph("svc", "dpi") // dpi defaults 0.4 CPU
	for _, m := range allMappers() {
		rv := syntheticView(2, ees, 0, 0)
		if _, err := m.Map(g, rv); err == nil {
			t.Errorf("%s accepted an unsatisfiable request", m.MapperName())
		}
	}
}

func TestMappersRespectBandwidth(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 4, Mem: 4096}}
	g := sg.NewChainGraph("svc", "monitor")
	// Demand 10 Mbps on the last SG link; trunk capacity only 1 Mbps.
	g.Links[1].Bandwidth = 10e6
	for _, m := range allMappers() {
		rv := syntheticView(2, ees, 1e6, 0)
		if _, err := m.Map(g, rv); err == nil {
			t.Errorf("%s mapped over a saturated trunk", m.MapperName())
		}
		// With capacity raised it fits.
		rv2 := syntheticView(2, ees, 100e6, 0)
		if _, err := m.Map(g, rv2); err != nil {
			t.Errorf("%s failed on feasible bandwidth: %v", m.MapperName(), err)
		}
	}
}

func TestMappersRespectDelayBound(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 4, Mem: 4096}}
	g := sg.NewChainGraph("svc", "monitor")
	g.Links[1].MaxDelay = 1 * time.Millisecond
	for _, m := range allMappers() {
		// Each trunk adds 5ms: sap2 is 1 trunk away → 5ms > 1ms bound.
		rv := syntheticView(2, ees, 0, 5*time.Millisecond)
		if _, err := m.Map(g, rv); err == nil {
			t.Errorf("%s violated the delay bound", m.MapperName())
		}
		rv2 := syntheticView(2, ees, 0, 100*time.Microsecond)
		if _, err := m.Map(g, rv2); err != nil {
			t.Errorf("%s failed within the delay bound: %v", m.MapperName(), err)
		}
	}
}

func TestBacktrackBeatsGreedyOnPlacement(t *testing.T) {
	// Greedy (alphabetical) parks both NFs on ee-far (name sorts first),
	// forcing long routes; backtrack finds the near EE.
	ees := map[string]EESpec{
		"ee-afar": {Switch: "sw4", CPU: 4, Mem: 4096},
		"ee-near": {Switch: "sw2", CPU: 4, Mem: 4096},
	}
	g := sg.NewChainGraph("svc", "monitor")
	cat := catalog.Default()

	// sap1@sw1, sap2@sw3: ee-near@sw2 costs 1+1 hops, ee-afar@sw4 costs
	// 3+1 — strictly worse, so the optimum is unambiguous.
	mkView := func() *ResourceView {
		rv := syntheticView(4, ees, 0, 0)
		rv.SAPs["sap2"].Switch = "sw3"
		return rv
	}
	gm, err := (&GreedyMapper{Catalog: cat}).Map(g, mkView())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := (&BacktrackMapper{Catalog: cat}).Map(g, mkView())
	if err != nil {
		t.Fatal(err)
	}
	if bm.TotalHops() >= gm.TotalHops() {
		t.Errorf("backtrack (%d hops) not better than greedy (%d hops)", bm.TotalHops(), gm.TotalHops())
	}
	if bm.Placements["nf1"] != "ee-near" {
		t.Errorf("backtrack placed nf1 on %s", bm.Placements["nf1"])
	}
}

func TestKSPPrefersOnPathEE(t *testing.T) {
	ees := map[string]EESpec{
		"ee-detour": {Switch: "sw5", CPU: 4, Mem: 4096},
		"ee-onpath": {Switch: "sw2", CPU: 4, Mem: 4096},
	}
	rv := syntheticView(5, ees, 0, 0)
	// Reposition sap2 so the natural path is sw1→sw2→sw3.
	rv.SAPs["sap2"].Switch = "sw3"
	g := sg.NewChainGraph("svc", "monitor")
	m, err := (&KSPMapper{Catalog: catalog.Default()}).Map(g, rv)
	if err != nil {
		t.Fatal(err)
	}
	if m.Placements["nf1"] != "ee-onpath" {
		t.Errorf("ksp placed nf1 on %s, want ee-onpath", m.Placements["nf1"])
	}
}

func TestMapperErrorsOnUnboundSAP(t *testing.T) {
	rv := syntheticView(2, map[string]EESpec{"ee1": {Switch: "sw1", CPU: 1, Mem: 512}}, 0, 0)
	delete(rv.SAPs, "sap2")
	g := sg.NewChainGraph("svc", "monitor")
	for _, m := range allMappers() {
		if _, err := m.Map(g, rv); err == nil || !strings.Contains(err.Error(), "binding") {
			t.Errorf("%s: err = %v", m.MapperName(), err)
		}
	}
}

func TestSnapshotIsolatedFromCommit(t *testing.T) {
	ees := map[string]EESpec{"ee1": {Switch: "sw1", CPU: 1, Mem: 512}}
	rv := syntheticView(2, ees, 0, 0)
	g := sg.NewChainGraph("svc", "monitor")
	cat := catalog.Default()
	m1, err := (&GreedyMapper{Catalog: cat}).Map(g, rv)
	if err != nil {
		t.Fatal(err)
	}
	rv.Commit(m1)
	// Free CPU decreased; a graph needing the full EE no longer fits.
	big := sg.NewChainGraph("svc2", "monitor")
	big.NFs[0].CPU = 1.0
	if _, err := (&GreedyMapper{Catalog: cat}).Map(big, rv); err == nil {
		t.Error("mapped over committed resources")
	}
	rv.Release(m1)
	if _, err := (&GreedyMapper{Catalog: cat}).Map(big, rv); err != nil {
		t.Errorf("release did not free resources: %v", err)
	}
}

func TestShortestFeasiblePathProperties(t *testing.T) {
	ees := map[string]EESpec{}
	rv := syntheticView(6, ees, 0, 0)
	caps := rv.Snapshot()
	route := caps.ShortestFeasiblePath("sw1", "sw6", 0, 0)
	if len(route) != 6 {
		t.Fatalf("route = %v", route)
	}
	if route[0] != "sw1" || route[5] != "sw6" {
		t.Errorf("route endpoints = %v", route)
	}
	// Same node → single-element route.
	if r := caps.ShortestFeasiblePath("sw3", "sw3", 0, 0); len(r) != 1 {
		t.Errorf("self route = %v", r)
	}
	// Unknown node → nil.
	if r := caps.ShortestFeasiblePath("sw1", "nowhere", 0, 0); r != nil {
		t.Errorf("route to nowhere = %v", r)
	}
}

// Property: on an uncapacitated linear topology every mapper that
// succeeds produces capacity-respecting placements and adjacent routes.
func TestQuickMappersInvariants(t *testing.T) {
	cat := catalog.Default()
	f := func(nNFs, seed uint8) bool {
		k := int(nNFs%4) + 1
		types := make([]string, k)
		for i := range types {
			types[i] = "monitor"
		}
		g := sg.NewChainGraph("q", types...)
		ees := map[string]EESpec{
			"ee1": {Switch: "sw1", CPU: 2, Mem: 2048},
			"ee2": {Switch: "sw2", CPU: 2, Mem: 2048},
		}
		for _, m := range []Mapper{
			&GreedyMapper{Catalog: cat},
			&RandomMapper{Catalog: cat, Seed: int64(seed)},
			&KSPMapper{Catalog: cat},
		} {
			rv := syntheticView(3, ees, 0, 0)
			mapping, err := m.Map(g, rv)
			if err != nil {
				return false
			}
			for _, route := range mapping.Routes {
				for i := 0; i+1 < len(route); i++ {
					if rv.linkBetween(route[i], route[i+1]) == nil {
						return false
					}
				}
			}
			if len(mapping.Placements) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
