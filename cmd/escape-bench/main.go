// Command escape-bench regenerates the evaluation tables of README's
// "Running the experiments" section: every id in experiments.Registry,
// with the parameters the registry holds for it.
//
// Usage:
//
//	escape-bench                                 # every experiment, full-run parameters
//	escape-bench -quick                          # CI-sized: what TestExperimentsDeterministic runs
//	escape-bench -e e3,e4                        # a subset
//	escape-bench -e e11 -p kills=1,3 -p chain=6  # override parameters of one experiment
//	escape-bench -e e14 -quick -json BENCH_E14.json
//	escape-bench -e e11 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"escape/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "escape-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	pl, err := parseArgs(args)
	if err != nil {
		return err
	}
	return pl.execute(w)
}

// job is one selected experiment with its resolved parameters.
type job struct {
	reg    experiments.Registered
	params experiments.Params
}

// plan is one parsed command line.
type plan struct {
	jobs                            []job
	jsonOut, cpuprofile, memprofile string
}

// paramFlag collects repeatable -p key=value overrides.
type paramFlag experiments.Params

func (p paramFlag) String() string { return "" }

func (p paramFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[k] = v
	return nil
}

func parseArgs(args []string) (*plan, error) {
	reg := experiments.Registry()
	fs := flag.NewFlagSet("escape-bench", flag.ContinueOnError)
	which := fs.String("e", "all", fmt.Sprintf("comma-separated experiments (%s..%s) or 'all'", reg[0].ID, reg[len(reg)-1].ID))
	overrides := experiments.Params{}
	fs.Var(paramFlag(overrides), "p", "set one parameter of the selected experiment, key=value (repeatable; needs exactly one -e id)")
	quick := fs.Bool("quick", false, "CI-sized parameters (the registry's Quick overrides)")
	pl := &plan{}
	fs.StringVar(&pl.jsonOut, "json", "", "write the selected experiment's table as JSON (CI artifact) to this file; needs exactly one -e id")
	fs.StringVar(&pl.cpuprofile, "cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	fs.StringVar(&pl.memprofile, "memprofile", "", "write a heap profile taken after the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	selected := map[string]bool{}
	for _, r := range reg {
		selected[r.ID] = *which == "all"
	}
	if *which != "all" {
		for _, e := range strings.Split(*which, ",") {
			id := strings.TrimSpace(strings.ToLower(e))
			if _, ok := selected[id]; !ok {
				return nil, fmt.Errorf("unknown experiment %q in -e %s (want %s..%s or 'all')", id, *which, reg[0].ID, reg[len(reg)-1].ID)
			}
			selected[id] = true
		}
	}
	var chosen []experiments.Registered
	for _, r := range reg {
		if selected[r.ID] {
			chosen = append(chosen, r)
		}
	}
	if pl.jsonOut != "" && len(chosen) != 1 {
		return nil, fmt.Errorf("-json writes one table: select exactly one experiment with -e (got %d)", len(chosen))
	}
	if len(overrides) > 0 && len(chosen) != 1 {
		return nil, fmt.Errorf("-p sets one experiment's parameters: select exactly one experiment with -e (got %d)", len(chosen))
	}
	for _, r := range chosen {
		p, err := r.With(*quick, overrides)
		if err != nil {
			return nil, fmt.Errorf("-p: %w", err)
		}
		pl.jobs = append(pl.jobs, job{r, p})
	}
	return pl, nil
}

// execute runs the selected experiments in registry order; the profiles
// cover exactly those runs.
func (pl *plan) execute(w io.Writer) error {
	if pl.cpuprofile != "" {
		f, err := os.Create(pl.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, j := range pl.jobs {
		tbl, err := j.reg.Run(j.params)
		if err != nil {
			return fmt.Errorf("%s: %w", j.reg.ID, err)
		}
		tbl.Render(w)
		if pl.jsonOut != "" {
			if err := tbl.WriteJSON(pl.jsonOut); err != nil {
				return fmt.Errorf("-json: %w", err)
			}
			fmt.Fprintf(os.Stderr, "escape-bench: wrote %s\n", pl.jsonOut)
		}
	}
	if pl.memprofile != "" {
		f, err := os.Create(pl.memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize final live-heap numbers
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
