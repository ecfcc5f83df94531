// Custommapper demonstrates the paper's extensibility headline: the
// orchestrator "can accommodate mapping algorithms … which can be easily
// changed or customized". It defines a consolidation mapper (pack every
// NF onto the single EE with the most free CPU — an energy-saving
// policy), plugs it into a running orchestrator with SetMapper, and
// compares its placements with the built-in algorithms on the same
// request.
//
//	go run ./examples/custommapper
package main

import (
	"fmt"
	"log"
	"sort"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

// ConsolidationMapper packs all NFs onto as few EEs as possible,
// preferring the EE with the most free capacity. ~40 lines: this is the
// entire cost of a custom mapping policy.
type ConsolidationMapper struct {
	Catalog *catalog.Catalog
}

// MapperName implements core.Mapper.
func (*ConsolidationMapper) MapperName() string { return "consolidate" }

// Map implements core.Mapper.
func (cm *ConsolidationMapper) Map(g *sg.Graph, rv *core.ResourceView) (*core.Mapping, error) {
	// Delegate feasibility bookkeeping to the greedy mapper over a view
	// reordered by free capacity: most-loaded-last ensures consolidation.
	caps := rv.Snapshot()
	order := rv.EENames()
	sort.Slice(order, func(i, j int) bool {
		return caps.FreeCPU(order[i]) > caps.FreeCPU(order[j])
	})
	placements := map[string]string{}
	mapping := &core.Mapping{Graph: g, Catalog: cm.Catalog}
	for _, nf := range g.NFs {
		cpu, mem := core.NFDemand(cm.Catalog, nf)
		placed := false
		for _, ee := range order {
			if caps.FitsEE(ee, cpu, mem) {
				caps.TakeEE(ee, cpu, mem)
				placements[nf.ID] = ee
				placed = true
				break // order is by free CPU: first hit = fullest feasible? no: most-free first → pack there
			}
		}
		if !placed {
			return nil, fmt.Errorf("consolidate: no EE fits NF %q", nf.ID)
		}
	}
	mapping.Placements = placements
	// Route with the shared shortest-feasible-path machinery by asking a
	// greedy mapper to finish the job would re-place NFs; instead route
	// directly through the capacities snapshot.
	routes := map[string][]string{}
	for _, l := range g.Links {
		src, err := attach(rv, placements, l.Src.Node)
		if err != nil {
			return nil, err
		}
		dst, err := attach(rv, placements, l.Dst.Node)
		if err != nil {
			return nil, err
		}
		bw, _ := sg.BWOf(l.Bandwidth)
		route := caps.ShortestFeasiblePath(src, dst, bw, l.MaxDelay)
		if route == nil {
			return nil, fmt.Errorf("consolidate: no path for link %q", l.ID)
		}
		routes[l.ID] = route
	}
	mapping.Routes = routes
	return mapping, nil
}

func attach(rv *core.ResourceView, placements map[string]string, node string) (string, error) {
	if sap := rv.SAPs[node]; sap != nil {
		return sap.Switch, nil
	}
	ee, ok := placements[node]
	if !ok {
		return "", fmt.Errorf("consolidate: %q unplaced", node)
	}
	return rv.EEs[ee].Switch, nil
}

func main() {
	env, err := core.StartEnvironment(core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 4, Mem: 4096},
			"ee2": {Switch: "s2", CPU: 4, Mem: 4096},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	g := sg.NewChainGraph("compare", "firewall", "monitor", "ratelimiter")
	g.SAPs[0].ID, g.SAPs[1].ID = "h1", "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"

	fmt.Println("same request, four algorithms (dry-run placements):")
	mappers := []core.Mapper{
		&core.GreedyMapper{Catalog: env.Catalog},
		&core.KSPMapper{Catalog: env.Catalog},
		&core.BacktrackMapper{Catalog: env.Catalog},
		&ConsolidationMapper{Catalog: env.Catalog},
	}
	for _, m := range mappers {
		mapping, err := m.Map(g, env.View)
		if err != nil {
			log.Fatalf("%s: %v", m.MapperName(), err)
		}
		used := map[string]bool{}
		for _, ee := range mapping.Placements {
			used[ee] = true
		}
		fmt.Printf("  %-12s hops=%d EEs-used=%d placements=%v\n",
			m.MapperName(), mapping.TotalHops(), len(used), mapping.Placements)
	}

	// Plug the custom policy in and deploy for real.
	env.Orch.SetMapper(&ConsolidationMapper{Catalog: env.Catalog})
	svc, err := env.Orch.Deploy(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeployed with %q: all NFs on ", env.Orch.Mapper().MapperName())
	used := map[string]bool{}
	for _, dep := range svc.NFs {
		used[dep.EE] = true
	}
	for ee := range used {
		fmt.Printf("%s ", ee)
	}
	fmt.Println("\n(one container: the consolidation policy held end to end)")
	if err := env.Orch.Undeploy(g.Name); err != nil {
		log.Fatal(err)
	}
}
