// Command miniedit is the textual stand-in for ESCAPE's MiniEdit-based
// GUI: it creates, validates and visualizes service graphs, one of the
// two artefacts the GUI edits, as JSON files plus Graphviz DOT.
//
// Usage:
//
//	miniedit new-sg -name svc -chain firewall,monitor -o sg.json
//	miniedit check -sg sg.json
//	miniedit dot   -sg sg.json          # SG → DOT on stdout
//	miniedit chains -sg sg.json         # list extracted service chains
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"escape/internal/catalog"
	"escape/internal/sg"
	"escape/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "new-sg":
		err = newSG(os.Args[2:])
	case "check":
		err = withSG(os.Args[2:], func(g *sg.Graph) error {
			chains, err := g.Chains()
			if err != nil {
				return err
			}
			// Cross-check NF types against the catalog (the GUI's
			// "predefined list").
			cat := catalog.Default()
			for _, nf := range g.NFs {
				if _, err := cat.Lookup(nf.Type); err != nil {
					return fmt.Errorf("NF %q: %w", nf.ID, err)
				}
			}
			fmt.Printf("OK: %d SAPs, %d NFs, %d links, %d chains\n",
				len(g.SAPs), len(g.NFs), len(g.Links), len(chains))
			return nil
		})
	case "dot":
		err = withSG(os.Args[2:], func(g *sg.Graph) error {
			fmt.Print(viz.ServiceGraphDOT(g))
			return nil
		})
	case "chains":
		err = withSG(os.Args[2:], func(g *sg.Graph) error {
			chains, err := g.Chains()
			if err != nil {
				return err
			}
			for i, c := range chains {
				fmt.Printf("chain %d: %s\n", i+1, c)
			}
			return nil
		})
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "miniedit:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: miniedit <new-sg|check|dot|chains> [flags]
  new-sg -name NAME -chain type1,type2,... [-o FILE]
  check  -sg FILE      validate an SG (structure + catalog types)
  dot    -sg FILE      render an SG as Graphviz DOT
  chains -sg FILE      list extracted SAP-to-SAP chains`)
}

func newSG(args []string) error {
	fs := flag.NewFlagSet("new-sg", flag.ExitOnError)
	name := fs.String("name", "service", "service graph name")
	chain := fs.String("chain", "", "comma-separated catalog VNF types")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	var types []string
	if *chain != "" {
		for _, t := range strings.Split(*chain, ",") {
			types = append(types, strings.TrimSpace(t))
		}
	}
	cat := catalog.Default()
	for _, t := range types {
		if _, err := cat.Lookup(t); err != nil {
			return err
		}
	}
	g := sg.NewChainGraph(*name, types...)
	data, err := g.ToJSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func withSG(args []string, fn func(*sg.Graph) error) error {
	fs := flag.NewFlagSet("sg", flag.ExitOnError)
	path := fs.String("sg", "", "service graph JSON file")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("need -sg FILE")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	g, err := sg.FromJSON(data)
	if err != nil {
		return err
	}
	return fn(g)
}
