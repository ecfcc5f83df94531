package core

import (
	"reflect"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// The cross-mapper conformance suite: every registered Mapper runs the
// same scenario matrix and must uphold the same contract — reject the
// infeasible, accept the boundary-exact, never oversubscribe an EE or a
// link, leave the view untouched by Map itself, restore the exact
// capacity snapshot after a Commit+Release round trip, and place
// deterministically for a fixed input.
//
// The view counts in integer units, so snapshots round-trip bit-exactly
// and can be compared with DeepEqual.

// confScenario is one cell row of the conformance matrix.
type confScenario struct {
	name    string
	view    func() *ResourceView
	graph   func() *sg.Graph
	wantErr bool
}

// confChain builds a sap1→nf…→sap2 chain of n NFs with explicit demands.
func confChain(n int, cpu float64, mem int) *sg.Graph {
	types := make([]string, n)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph("conf", types...)
	for _, nf := range g.NFs {
		nf.CPU = cpu
		nf.Mem = mem
	}
	return g
}

func confScenarios() []confScenario {
	twoEEs := func(cpu float64, mem int) map[string]EESpec {
		return map[string]EESpec{
			"ee1": {Switch: "sw1", CPU: cpu, Mem: mem},
			"ee2": {Switch: "sw3", CPU: cpu, Mem: mem},
		}
	}
	return []confScenario{
		{
			name:    "feasible-chain",
			view:    func() *ResourceView { return syntheticView(3, twoEEs(1, 1024), 0, 0) },
			graph:   func() *sg.Graph { return confChain(2, 0.25, 128) },
			wantErr: false,
		},
		{
			name:    "infeasible-cpu",
			view:    func() *ResourceView { return syntheticView(3, twoEEs(0.5, 1024), 0, 0) },
			graph:   func() *sg.Graph { return confChain(1, 1, 128) },
			wantErr: true,
		},
		{
			name:    "infeasible-mem",
			view:    func() *ResourceView { return syntheticView(3, twoEEs(1, 64), 0, 0) },
			graph:   func() *sg.Graph { return confChain(1, 0.25, 128) },
			wantErr: true,
		},
		{
			name: "saturated-link",
			view: func() *ResourceView { return syntheticView(3, twoEEs(1, 1024), 1e6, 0) },
			graph: func() *sg.Graph {
				g := confChain(1, 0.25, 128)
				for _, l := range g.Links {
					l.Bandwidth = 10e6
				}
				return g
			},
			wantErr: true,
		},
		{
			// The only EE sits mid-chain, so every placement pays ≥ one
			// 5ms trunk on the bounded link — infeasible for smart and
			// naive placement alike (an EE at the destination switch
			// would make this a placement-quality case instead: backtrack
			// and random would legally satisfy it).
			name: "delay-bound",
			view: func() *ResourceView {
				return syntheticView(3, map[string]EESpec{
					"ee1": {Switch: "sw2", CPU: 1, Mem: 1024},
				}, 0, 5*time.Millisecond)
			},
			graph: func() *sg.Graph {
				g := confChain(1, 0.25, 128)
				g.Links[len(g.Links)-1].MaxDelay = time.Millisecond
				return g
			},
			wantErr: true,
		},
		{
			// Demands equal to capacity must fit: > vs ≥ off-by-ones show
			// up here.
			name: "boundary-exact-fit",
			view: func() *ResourceView {
				return syntheticView(3, map[string]EESpec{
					"ee1": {Switch: "sw2", CPU: 0.5, Mem: 256},
				}, 8e6, 0)
			},
			graph: func() *sg.Graph {
				g := confChain(2, 0.25, 128) // 2×0.25 CPU, 2×128 mem: exactly ee1
				for _, l := range g.Links {
					l.Bandwidth = 8e6 // exactly the trunk capacity
				}
				return g
			},
			wantErr: false,
		},
	}
}

// capsSnapshot materializes the comparable part of a Capacities
// snapshot (the copy-on-write view resolves lazily, so tests walk the
// full topology to get DeepEqual-able maps).
func capsSnapshot(rv *ResourceView) (map[string]sg.CPU, map[string]int, map[linkKey]sg.BW) {
	c := rv.Snapshot()
	cpu := map[string]sg.CPU{}
	mem := map[string]int{}
	for name := range rv.EEs {
		cpu[name] = c.FreeCPU(name)
		mem[name] = c.eeFree(c.ix.eeRef(name, false)).mem
	}
	bw := map[linkKey]sg.BW{}
	for _, l := range rv.Links {
		if l.Bandwidth > 0 {
			bw[mkLinkKey(l.A, l.B)] = c.linkFree(mkLinkKey(l.A, l.B)).bw
		}
	}
	return cpu, mem, bw
}

// checkNoOversubscription verifies EE and link budgets against raw
// capacities.
func checkNoOversubscription(t *testing.T, m *Mapping, rv *ResourceView) {
	t.Helper()
	cpuUsed := map[string]sg.CPU{}
	memUsed := map[string]int{}
	for nfID, ee := range m.Placements {
		cpu, mem := NFDemand(m.Catalog, m.Graph.NF(nfID))
		cpuUsed[ee] += cpu
		memUsed[ee] += mem
	}
	for ee, used := range cpuUsed {
		if rv.EEs[ee] == nil {
			t.Errorf("placement on unknown EE %q", ee)
			continue
		}
		if used > capCPU(rv.EEs[ee]) || memUsed[ee] > rv.EEs[ee].Mem {
			t.Errorf("EE %q oversubscribed: %v/%v CPU, %d/%d mem",
				ee, used, rv.EEs[ee].CPU, memUsed[ee], rv.EEs[ee].Mem)
		}
	}
	bwUsed := map[linkKey]sg.BW{}
	for _, l := range m.Graph.Links {
		route := m.Routes[l.ID]
		if len(route) == 0 {
			t.Errorf("link %q unrouted", l.ID)
			continue
		}
		bw := m.linkDemand(l)
		for i := 0; i+1 < len(route); i++ {
			lr := rv.linkBetween(route[i], route[i+1])
			if lr == nil {
				t.Errorf("link %q routed over non-adjacent %s–%s", l.ID, route[i], route[i+1])
				continue
			}
			if bw > 0 {
				bwUsed[mkLinkKey(route[i], route[i+1])] += bw
			}
		}
	}
	for k, used := range bwUsed {
		lr := rv.linkBetween(k.a, k.b)
		if lr.Bandwidth > 0 && used > capBW(lr) {
			t.Errorf("link %s–%s oversubscribed: %d/%.0f", k.a, k.b, used, lr.Bandwidth)
		}
	}
}

func TestMapperConformance(t *testing.T) {
	for _, m := range RegisteredMappers(catalog.Default()) {
		for _, sc := range confScenarios() {
			t.Run(m.MapperName()+"/"+sc.name, func(t *testing.T) {
				rv := sc.view()
				cpu0, mem0, bw0 := capsSnapshot(rv)

				mapping, err := m.Map(sc.graph(), rv)
				if sc.wantErr {
					if err == nil {
						t.Fatalf("%s accepted an infeasible request", m.MapperName())
					}
				} else if err != nil {
					t.Fatalf("%s rejected a feasible request: %v", m.MapperName(), err)
				}

				// Map must never mutate the view, accepted or not.
				cpu1, mem1, bw1 := capsSnapshot(rv)
				if !reflect.DeepEqual(cpu0, cpu1) || !reflect.DeepEqual(mem0, mem1) || !reflect.DeepEqual(bw0, bw1) {
					t.Errorf("Map mutated the resource view")
				}
				if err != nil {
					return
				}

				checkNoOversubscription(t, mapping, rv)

				// Commit must actually reserve, Release must restore the
				// exact pre-commit snapshot. Each is one epoch of the
				// versioned view: the state restores, the history doesn't.
				ep0 := rv.Epoch()
				rv.Commit(mapping)
				if rv.Epoch() != ep0+1 {
					t.Errorf("Commit published %d epochs, want 1", rv.Epoch()-ep0)
				}
				cpu2, _, _ := capsSnapshot(rv)
				if len(mapping.Placements) > 0 && reflect.DeepEqual(cpu0, cpu2) {
					t.Errorf("Commit reserved nothing")
				}
				rv.Release(mapping)
				if rv.Epoch() != ep0+2 {
					t.Errorf("Release published %d epochs, want 1", rv.Epoch()-ep0-1)
				}
				cpu3, mem3, bw3 := capsSnapshot(rv)
				if !reflect.DeepEqual(cpu0, cpu3) || !reflect.DeepEqual(mem0, mem3) || !reflect.DeepEqual(bw0, bw3) {
					t.Errorf("Commit+Release did not restore the capacity snapshot:\n cpu %v → %v\n mem %v → %v\n bw %v → %v",
						cpu0, cpu3, mem0, mem3, bw0, bw3)
				}

				// Determinism: a fresh identical view must yield the same
				// placements and routes.
				again, err := m.Map(sc.graph(), sc.view())
				if err != nil {
					t.Fatalf("second identical Map failed: %v", err)
				}
				if !reflect.DeepEqual(mapping.Placements, again.Placements) {
					t.Errorf("placements not deterministic: %v vs %v", mapping.Placements, again.Placements)
				}
				if !reflect.DeepEqual(mapping.Routes, again.Routes) {
					t.Errorf("routes not deterministic: %v vs %v", mapping.Routes, again.Routes)
				}
			})
		}
	}
}

// TestExactDecimalFit: decimal demands that add up to exactly an EE's
// capacity fit. Three catalog monitors (0.1 CPU, 32 MB each) fill a
// 0.3 CPU / 96 MB EE; in float64, 0.1+0.1+0.1 > 0.3.
func TestExactDecimalFit(t *testing.T) {
	for _, m := range RegisteredMappers(catalog.Default()) {
		t.Run(m.MapperName(), func(t *testing.T) {
			rv := syntheticView(3, map[string]EESpec{
				"ee1": {Switch: "sw2", CPU: 0.3, Mem: 96},
			}, 0, 0)
			mapping, err := rv.AdmitAndCommit(m, sg.NewChainGraph("mon3", "monitor", "monitor", "monitor"))
			if err != nil {
				t.Fatalf("three 0.1-CPU monitors on a 0.3-CPU EE: %v", err)
			}
			if cpu, mem := rv.Committed("ee1"); cpu != 300_000 || mem != 96 {
				t.Errorf("committed (%v, %d), want (0.3, 96)", cpu, mem)
			}
			rv.Release(mapping)
			if cpu, mem := rv.Committed("ee1"); cpu != 0 || mem != 0 {
				t.Errorf("after release (%v, %d), want (0, 0)", cpu, mem)
			}
		})
	}
}

// TestOutOfRangeDemandRefused: an NF demand beyond int64 micro-cores is
// refused by every mapper and leaves the view as it was.
func TestOutOfRangeDemandRefused(t *testing.T) {
	for _, m := range RegisteredMappers(catalog.Default()) {
		rv := syntheticView(3, map[string]EESpec{"ee1": {Switch: "sw2", CPU: 4, Mem: 1024}}, 0, 0)
		before := rv.Fingerprint()
		g := sg.NewChainGraph("huge", "monitor")
		g.NFs[0].CPU = 1e300
		if _, err := rv.AdmitAndCommit(m, g); err == nil {
			t.Errorf("%s admitted a 1e300-CPU NF", m.MapperName())
		}
		if cpu, _ := rv.Committed("ee1"); rv.Fingerprint() != before {
			t.Errorf("%s: view changed, ee1 committed %v", m.MapperName(), cpu)
		}
	}
}
