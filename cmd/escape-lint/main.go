// Command escape-lint runs the escape-lint analyzer suite over Go
// package patterns (default ./...) and reports violations of the
// codebase's concurrency and ownership invariants, and declarations or
// exports without a non-test caller (deadexport). deadexport counts
// uses over the whole root module and bench/ whatever the patterns; the
// patterns choose where findings are printed. It exits 1 when any
// diagnostic is reported and 2 when loading or type-checking fails, so
// CI can distinguish "found bugs" from "could not analyze".
//
// Usage:
//
//	escape-lint [-list] [-only analyzer[,analyzer]] [packages...]
//
// Suppress a finding with a directive on the offending line or the
// line above, naming the analyzer(s) and a reason:
//
//	//lint:ignore sendunderlock send is non-blocking by construction
//
// In the doc comment of a parenthesized const, var or type block the
// directive covers the block; in the package doc comment, the file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"escape/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		analyzers = nil
		for _, a := range lint.All {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			for name := range want {
				fmt.Fprintf(os.Stderr, "escape-lint: unknown analyzer %q\n", name)
			}
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escape-lint: %v\n", err)
		os.Exit(2)
	}
	universe, err := lint.LoadModules(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "escape-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, universe, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escape-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "escape-lint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
