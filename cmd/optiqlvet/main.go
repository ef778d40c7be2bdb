// Command optiqlvet is the static enforcement suite for the OptiQL
// protocol invariants. It loads the matched packages, tests included,
// and runs every analyzer over them with module-wide facts, reporting
// unused suppression directives too:
//
//	go run ./cmd/optiqlvet ./...
//	go run ./cmd/optiqlvet -checks shcheck,expair ./internal/btree
//
// -h lists the analyzers. Exit status: 0 clean, 1 usage or load
// failure, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optiql/internal/analysis"
	"optiql/internal/analysis/driver"
	"optiql/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("optiqlvet", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: optiqlvet [-checks a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range driver.All() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optiqlvet: %v\n", err)
		return 1
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := driver.Run(load.Config{Patterns: patterns}, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optiqlvet: %v\n", err)
		return 1
	}
	if rep.Print(os.Stderr) {
		return 2
	}
	return 0
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	if checks == "" {
		return driver.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := driver.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (run with -h)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}
