// Command escape is the ESCAPE CLI: it sets up the whole service-chaining
// environment (emulated infrastructure + controller + NETCONF agents +
// orchestrator) from declarative JSON files and drives the demo workflow.
//
// Usage:
//
//	escape demo                          run the built-in demo (paper steps 1–5)
//	escape run -topo t.json -sg s.json   deploy an SG on a topology, verify, tear down
//	escape map -topo t.json -sg s.json   dry-run mapping, print placement + DOT
//	escape catalog                       list VNF catalog entries
//	escape yang                          print the vnf_starter YANG module
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/experiments"
	"escape/internal/mgmt"
	"escape/internal/sg"
	"escape/internal/trafgen"
	"escape/internal/viz"
	"escape/internal/vnfagent"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = runDemo()
	case "run":
		err = runService(os.Args[2:], false)
	case "map":
		err = runService(os.Args[2:], true)
	case "catalog":
		err = printCatalog()
	case "yang":
		fmt.Print(vnfagent.Module().YANG())
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "escape:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: escape <demo|run|map|catalog|yang> [flags]
  demo                              run the built-in 5-step demo
  run  -topo FILE -sg FILE [-mapper greedy|ksp|backtrack|random]
  map  -topo FILE -sg FILE [-mapper ...]   (mapping only, prints DOT)
  catalog                           list VNF types
  yang                              print the vnf_starter YANG module`)
}

func runDemo() error {
	fmt.Println("ESCAPE demo: the five steps of the SIGCOMM'14 walkthrough")
	tbl, err := experiments.E2Demo()
	if err != nil {
		return err
	}
	tbl.Render(os.Stdout)
	return nil
}

// topoFile is the JSON topology format (MiniEdit's "resources and
// topology" pane).
type topoFile struct {
	Switches []string               `json:"switches"`
	Hosts    map[string]string      `json:"hosts"`
	EEs      map[string]core.EESpec `json:"ees"`
	Trunks   []core.TrunkSpec       `json:"trunks"`
}

// loadTopo reads a topology file. A key the format does not have, at any
// depth, is an error naming it: a misspelt key must not quietly deploy a
// different topology.
func loadTopo(path string) (core.TopoSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.TopoSpec{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var tf topoFile
	if err := dec.Decode(&tf); err != nil {
		return core.TopoSpec{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return core.TopoSpec{}, fmt.Errorf("parsing %s: data after the topology object", path)
	}
	return core.TopoSpec{
		Switches: tf.Switches,
		Hosts:    tf.Hosts,
		EEs:      tf.EEs,
		Trunks:   tf.Trunks,
	}, nil
}

func pickMapper(name string, cat *catalog.Catalog) (core.Mapper, error) {
	switch name {
	case "", "ksp":
		return &core.KSPMapper{Catalog: cat}, nil
	case "greedy":
		return &core.GreedyMapper{Catalog: cat}, nil
	case "backtrack":
		return &core.BacktrackMapper{Catalog: cat}, nil
	case "random":
		return &core.RandomMapper{Catalog: cat, Seed: time.Now().UnixNano()}, nil
	}
	return nil, fmt.Errorf("unknown mapper %q", name)
}

func runService(args []string, mapOnly bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	topoPath := fs.String("topo", "", "topology JSON file")
	sgPath := fs.String("sg", "", "service graph JSON file")
	mapperName := fs.String("mapper", "ksp", "mapping algorithm")
	fs.Parse(args)
	if *topoPath == "" || *sgPath == "" {
		return fmt.Errorf("run/map need -topo and -sg")
	}
	spec, err := loadTopo(*topoPath)
	if err != nil {
		return err
	}
	sgData, err := os.ReadFile(*sgPath)
	if err != nil {
		return err
	}
	graph, err := sg.FromJSON(sgData)
	if err != nil {
		return err
	}
	cat := catalog.Default()
	mapper, err := pickMapper(*mapperName, cat)
	if err != nil {
		return err
	}
	spec.Mapper = mapper

	env, err := core.StartEnvironment(spec)
	if err != nil {
		return err
	}
	defer env.Close()
	fmt.Printf("environment up: %d switches, %d EEs, %d SAPs\n",
		len(env.View.Switches), len(env.View.EEs), len(env.View.SAPs))

	if mapOnly {
		mapping, err := mapper.Map(graph, env.View)
		if err != nil {
			return err
		}
		fmt.Printf("mapper %s: %d NFs placed, total route hops %d\n",
			mapper.MapperName(), len(mapping.Placements), mapping.TotalHops())
		for nf, ee := range mapping.Placements {
			fmt.Printf("  %-12s → %s (switch %s)\n", nf, ee, env.View.EEs[ee].Switch)
		}
		fmt.Println("\n# Graphviz DOT of the mapping:")
		fmt.Print(viz.MappingDOT(mapping))
		return nil
	}

	svc, err := env.Orch.Deploy(graph)
	if err != nil {
		return err
	}
	fmt.Printf("service %q %s: map=%v vnf-setup=%v steering=%v\n",
		svc.Name, svc.State(), svc.PhaseDurations["map"], svc.PhaseDurations["vnf-setup"], svc.PhaseDurations["steering"])

	// Verify connectivity between the first pair of SAP hosts.
	if len(graph.SAPs) >= 2 {
		src := env.Host(graph.SAPs[0].ID)
		dst := env.Host(graph.SAPs[1].ID)
		if src != nil && dst != nil {
			p := &trafgen.Pinger{Host: src}
			mac := dst.MAC()
			stats, err := p.Ping(dst.IP(), mac, 3, 50*time.Millisecond, 2*time.Second)
			if err == nil {
				fmt.Println("ping:", stats)
			}
		}
	}

	// One monitoring snapshot across all deployed VNFs, polling each
	// type's catalog-declared dashboard handlers.
	mon := mgmt.NewMonitor(time.Second, 4)
	for nfID, dep := range svc.NFs {
		handlers := []string{"cnt.count"}
		if t, err := cat.Lookup(dep.NF.Type); err == nil && len(t.Monitors) > 0 {
			handlers = t.Monitors
		}
		mon.Add(mgmt.Target{
			Name:     svc.Name + "/" + nfID,
			Control:  dep.Control,
			Handlers: handlers,
		})
	}
	mon.PollOnce()
	fmt.Println("\nVNF dashboard:")
	fmt.Print(mon.Dashboard())
	mon.Stop()

	return env.Orch.Undeploy(graph.Name)
}

func printCatalog() error {
	cat := catalog.Default()
	fmt.Println("VNF catalog:")
	for _, name := range cat.Names() {
		t, err := cat.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s cpu=%v mem=%dMB ports=%v\n    %s\n",
			name, t.DefaultCPU, t.DefaultMem, t.Ports, t.Description)
	}
	return nil
}
