// Package driver runs the full optiqlvet suite over a module — the
// multichecker behind `go run ./cmd/optiqlvet ./...`, `make lint`, CI
// and the golden tests. It sees the whole module at once, so the
// two-phase analyzers (atomicmix, tornread, walorder) get module-wide
// facts and unused suppression directives can be reported.
//
// Phases: Collect runs sequentially over the targets in dependency
// order (the loader's single `go list -deps` preserves it), so the
// interprocedural analyzers see callee summaries before callers. Run
// phases only read facts, so packages run on a bounded worker pool;
// diagnostics are gathered per package and merged in package order,
// keeping output deterministic regardless of scheduling.
package driver

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"optiql/internal/analysis"
	"optiql/internal/analysis/atomicmix"
	"optiql/internal/analysis/expair"
	"optiql/internal/analysis/load"
	"optiql/internal/analysis/noalloc"
	"optiql/internal/analysis/padalign"
	"optiql/internal/analysis/recycle"
	"optiql/internal/analysis/shcheck"
	"optiql/internal/analysis/tornread"
	"optiql/internal/analysis/walorder"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		shcheck.Analyzer,
		expair.Analyzer,
		noalloc.Analyzer,
		atomicmix.Analyzer,
		padalign.Analyzer,
		recycle.Analyzer,
		tornread.Analyzer,
		walorder.Analyzer,
	}
}

// ByName resolves a comma-free analyzer name against the suite.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Report is one driver invocation's outcome.
type Report struct {
	Result      *load.Result
	Diagnostics []analysis.Diagnostic
}

// Run loads the packages matched by cfg and applies the analyzers.
func Run(cfg load.Config, analyzers []*analysis.Analyzer) (*Report, error) {
	res, err := load.Load(cfg)
	if err != nil {
		return nil, err
	}
	facts := make(map[string]analysis.FactSet, len(analyzers))
	for _, a := range analyzers {
		facts[a.Name] = analysis.FactSet{}
	}

	// Collect: sequential, targets in dependency order.
	for _, pkg := range res.Targets {
		for _, a := range analyzers {
			if a.Collect == nil {
				continue
			}
			a.Collect(analysis.NewPass(a, res.Fset, pkg.Files, pkg.Types, pkg.Info, res.Sizes, facts[a.Name], nil))
		}
	}

	// Run: parallel per package, facts now read-only. Analysis is
	// memory-bandwidth bound well before 8 workers.
	perPkg := make([][]analysis.Diagnostic, len(res.Targets))
	errs := make([]error, len(res.Targets))
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), 8))
	var wg sync.WaitGroup
	for i, pkg := range res.Targets {
		wg.Add(1)
		go func(i int, pkg *load.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			igs, diags := analysis.ParseIgnores(res.Fset, pkg.Files)
			for _, a := range analyzers {
				pass := analysis.NewPass(a, res.Fset, pkg.Files, pkg.Types, pkg.Info, res.Sizes, facts[a.Name],
					func(d analysis.Diagnostic) { diags = append(diags, d) })
				if err := a.Run(pass); err != nil {
					errs[i] = fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
					return
				}
			}
			perPkg[i] = analysis.FilterIgnored(res.Fset, igs, diags)
		}(i, pkg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []analysis.Diagnostic
	for _, diags := range perPkg {
		all = append(all, diags...)
	}
	analysis.SortDiagnostics(res.Fset, all)
	return &Report{Result: res, Diagnostics: all}, nil
}

// Print writes type errors and diagnostics in vet format and reports
// whether the run found anything (the process exit condition).
func (r *Report) Print(w io.Writer) bool {
	for _, err := range r.Result.TypeErrors {
		fmt.Fprintf(w, "typecheck: %v\n", err)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(w, "%s: %s [%s]\n", r.Result.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return len(r.Result.TypeErrors) > 0 || len(r.Diagnostics) > 0
}
