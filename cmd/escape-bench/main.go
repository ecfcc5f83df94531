// Command escape-bench regenerates the evaluation tables of README's
// "Experiments" section (every id in experiments.Registry): workload
// generation, parameter sweeps and result tables in one binary.
//
// Usage:
//
//	escape-bench                 # all experiments, default parameters
//	escape-bench -e e3,e4        # a subset
//	escape-bench -e e3 -sizes 10,100,400
//	escape-bench -e e9 -e9conc 4,8,16 -e9chain 3
//	escape-bench -e e10 -e10domains 4 -e10chain 3
//	escape-bench -e e11 -e11kills 1,2 -e11chain 4
//	escape-bench -e e12 -e12k 8,12 -e12conc 16,64
//	escape-bench -e e13 -e13tenants 8 -e13intents 4 -json BENCH_E13.json
//	escape-bench -e e14 -json BENCH_E14.json              # flowsim smoke
//	escape-bench -e e14 -e14full                          # 100k switches, 1M services
//	escape-bench -e e14 -e14regions 10 -e14sw 200 -e14services 5000
//	escape-bench -e e14 -e14workers 8 -json BENCH_E14.json      # parallel player + determinism gate
//	escape-bench -quick          # reduced parameters (CI-friendly)
//	escape-bench -e e12 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"escape/internal/experiments"
	"escape/internal/substrate"
)

func main() {
	reg := experiments.Registry()
	which := flag.String("e", "all", fmt.Sprintf("comma-separated experiments (%s..%s) or 'all'", reg[0].ID, reg[len(reg)-1].ID))
	jsonOut := flag.String("json", "", "write the selected experiment's table as JSON (CI artifact) to this file; needs exactly one -e id")
	sizes := flag.String("sizes", "", "override E3 node counts, comma-separated")
	e9conc := flag.String("e9conc", "", "override E9 concurrent-deploy counts, comma-separated")
	e9chain := flag.Int("e9chain", 4, "E9 chain length (NFs per service)")
	e10domains := flag.Int("e10domains", 3, "E10 number of orchestration domains")
	e10chain := flag.Int("e10chain", 3, "E10 chain length (NFs per service)")
	e11kills := flag.String("e11kills", "", "override E11 EE kill counts, comma-separated")
	e11chain := flag.Int("e11chain", 3, "E11 chain length (NFs per service)")
	e12k := flag.String("e12k", "", "override E12 fat-tree sizes (even k), comma-separated")
	e12conc := flag.String("e12conc", "", "override E12 admission concurrencies, comma-separated")
	e12chain := flag.Int("e12chain", 3, "E12 chain length (NFs per service)")
	e13tenants := flag.Int("e13tenants", 4, "E13 concurrent tenants")
	e13intents := flag.Int("e13intents", 6, "E13 intents per tenant")
	e13chain := flag.Int("e13chain", 2, "E13 chain length (NFs per intent)")
	e14full := flag.Bool("e14full", false, "E14 headline scale: 100k switches, 1M services (minutes, several GB)")
	e14regions := flag.Int("e14regions", 0, "override E14 region count")
	e14sw := flag.Int("e14sw", 0, "override E14 switches per region")
	e14services := flag.Int("e14services", 0, "override E14 service count")
	e14faults := flag.Int("e14faults", 4, "E14 backbone link fail/heal pairs per cell")
	e14procs := flag.String("e14procs", "", "E14 arrival-process subset (diurnal,flash,pareto), default all")
	e14workers := flag.Int("e14workers", 0, "E14 parallel-player worker count (adds a workers=N row per cell; fails if any parallel report diverges from serial)")
	quick := flag.Bool("quick", false, "reduced parameter sets")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	// Profiles cover the selected experiment runs (started here, written
	// after the run loop; a fatal error exits without them).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	known := map[string]bool{}
	for _, r := range reg {
		known[r.ID] = true
	}
	selected := known
	if *which != "all" {
		selected = map[string]bool{}
		for _, e := range strings.Split(*which, ",") {
			id := strings.TrimSpace(strings.ToLower(e))
			if !known[id] {
				fatal(fmt.Errorf("unknown experiment %q in -e %s (want %s..%s or 'all')", id, *which, reg[0].ID, reg[len(reg)-1].ID))
			}
			selected[id] = true
		}
	}
	if *jsonOut != "" && len(selected) != 1 {
		fatal(fmt.Errorf("-json writes one table: select exactly one experiment with -e (got %d)", len(selected)))
	}

	e3sizes := []int{10, 50, 100, 200, 400}
	e4 := [3]int{16, 3, 40}
	e5 := []int{1, 2, 4, 8}
	e6pkts := 2000
	e7 := []int{1, 8, 32, 64}
	e8 := []int{1, 2, 4, 8}
	e9 := []int{1, 2, 4, 8, 16}
	e10conc := 4
	e11 := []int{1, 2}
	e11conc := 4
	e12ks := []int{4, 8, 12}
	e12concs := []int{1, 16, 64}
	if *quick {
		e3sizes = []int{10, 50}
		e4 = [3]int{8, 2, 10}
		e5 = []int{1, 2}
		e6pkts = 500
		e7 = []int{1, 8}
		e8 = []int{1, 2}
		e9 = []int{2, 4}
		e10conc = 2
		e11 = []int{1}
		e11conc = 2
		e12ks = []int{4}
		e12concs = []int{8}
		*e13tenants = 2
		*e13intents = 3
	}
	parseInts := func(flagName, s string) []int {
		var out []int
		for _, v := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				fatal(fmt.Errorf("bad %s value %q", flagName, v))
			}
			out = append(out, n)
		}
		return out
	}
	if *sizes != "" {
		e3sizes = parseInts("-sizes", *sizes)
	}
	if *e9conc != "" {
		e9 = parseInts("-e9conc", *e9conc)
	}
	if *e11kills != "" {
		e11 = parseInts("-e11kills", *e11kills)
	}
	if *e12k != "" {
		e12ks = parseInts("-e12k", *e12k)
	}
	if *e12conc != "" {
		e12concs = parseInts("-e12conc", *e12conc)
	}

	type exp struct {
		id  string
		run func() (*experiments.Table, error)
	}
	all := []exp{
		{"e1", experiments.E1Architecture},
		{"e2", experiments.E2Demo},
		{"e3", func() (*experiments.Table, error) { return experiments.E3Scale(e3sizes) }},
		{"e4", func() (*experiments.Table, error) { return experiments.E4Mapping(e4[0], e4[1], e4[2]) }},
		{"e5", func() (*experiments.Table, error) { return experiments.E5Steering(e5) }},
		{"e6", func() (*experiments.Table, error) {
			return experiments.E6ClickDataPlane([]int{1, 2, 4, 8}, []int{64, 1500}, e6pkts)
		}},
		{"e7", func() (*experiments.Table, error) { return experiments.E7NETCONF(e7) }},
		{"e8", func() (*experiments.Table, error) { return experiments.E8ServiceCreation(e8) }},
		{"e9", func() (*experiments.Table, error) { return experiments.E9DeployThroughput(e9, *e9chain) }},
		{"e10", func() (*experiments.Table, error) {
			return experiments.E10MultiDomain(*e10domains, *e10chain, e10conc)
		}},
		{"e11", func() (*experiments.Table, error) {
			return experiments.E11SelfHealing(e11, *e11chain, e11conc)
		}},
		{"e12", func() (*experiments.Table, error) {
			return experiments.E12Admission(e12ks, e12concs, *e12chain)
		}},
		{"e13", func() (*experiments.Table, error) {
			return experiments.E13ControlPlane(*e13tenants, *e13intents, *e13chain)
		}},
		{"e14", func() (*experiments.Table, error) {
			cfg := experiments.E14Config{Faults: *e14faults}
			if *e14full {
				cfg = experiments.E14FullScale()
			}
			if !*quick && !*e14full {
				// Default standalone run: a mid-size grid that still
				// finishes in seconds (quick mode shrinks further).
				cfg.Regions, cfg.SwitchesPerRegion, cfg.Services = 8, 64, 400
			}
			if *e14regions > 0 {
				cfg.Regions = *e14regions
			}
			if *e14sw > 0 {
				cfg.SwitchesPerRegion = *e14sw
			}
			if *e14services > 0 {
				cfg.Services = *e14services
			}
			if *e14procs != "" {
				for _, p := range strings.Split(*e14procs, ",") {
					cfg.Processes = append(cfg.Processes, substrate.ArrivalProcess(strings.TrimSpace(p)))
				}
			}
			if *e14workers > 1 {
				cfg.Workers = *e14workers
			}
			return experiments.E14ScaleSim(cfg)
		}},
	}
	if len(all) != len(reg) {
		fatal(fmt.Errorf("run list has %d experiments, experiments.Registry() %d", len(all), len(reg)))
	}
	for i, e := range all {
		if e.id != reg[i].ID {
			fatal(fmt.Errorf("run list entry %d is %s, experiments.Registry() has %s", i, e.id, reg[i].ID))
		}
	}
	for _, e := range all {
		if !selected[e.id] {
			continue
		}
		tbl, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
		tbl.Render(os.Stdout)
		if e.id == "e14" {
			// The parallel-determinism gate: any workers>1 row whose
			// report diverged from the serial replay is a correctness
			// failure, not a perf observation.
			match := tbl.Col("par_match")
			for _, r := range tbl.Rows {
				if r[match] != "true" {
					fatal(fmt.Errorf("e14: %s workers=%s parallel report diverged from serial (par_match=%s)",
						r[tbl.Col("proc")], r[tbl.Col("workers")], r[match]))
				}
			}
		}
		if *jsonOut != "" {
			if err := tbl.WriteJSON(*jsonOut); err != nil {
				fatal(fmt.Errorf("-json: %w", err))
			}
			fmt.Fprintf(os.Stderr, "escape-bench: wrote %s\n", *jsonOut)
		}
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialize final live-heap numbers
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "escape-bench:", err)
	os.Exit(1)
}
