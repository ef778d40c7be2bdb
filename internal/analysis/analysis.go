// Package analysis is a self-contained, stdlib-only reimplementation
// of the golang.org/x/tools/go/analysis model, sized for this repo's
// needs: custom vet-style passes that statically enforce the OptiQL
// protocol invariants (optimistic-read validation, exclusive pairing,
// zero-alloc hot paths, atomic access discipline, cache-line padding,
// recycle version bumps).
//
// The x/tools module is deliberately not a dependency — the repo
// builds with the standard library alone — so this package provides
// the three pieces the analyzers need: the Analyzer/Pass/Diagnostic
// vocabulary (this file), AST walking and annotation helpers
// (astwalk.go), and in-source suppression directives (ignore.go).
// Package loading lives in the load subpackage, the one driver in
// driver, and the golden-test harness in analysistest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Unlike x/tools there is no
// Requires/ResultOf graph — the suite is small enough that each
// analyzer is independent — but there is an explicit two-phase hook
// for module-wide facts: if Collect is non-nil the driver runs it
// over every package before any Run, and the analyzer may record
// facts in the shared FactSet it sees again at Run time.
type Analyzer struct {
	// Name is the analyzer's identifier: flag values, diagnostic
	// suffixes and suppression directives all use it.
	Name string
	// Doc is a one-paragraph description (first line is the summary).
	Doc string
	// Collect, if non-nil, is the module-wide fact-collection phase.
	// It must only read the package and write Pass.Facts; diagnostics
	// reported from Collect are discarded.
	Collect func(*Pass)
	// Run reports diagnostics for one package via Pass.Reportf.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, comments included. For a
	// module package under analysis this includes in-package _test.go
	// files; external test packages (package foo_test) form their own
	// Pass.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Sizes reports type sizes exactly as the gc compiler lays them
	// out for the current GOARCH (padalign depends on this).
	Sizes types.Sizes
	// Facts is the analyzer's module-wide fact store, shared between
	// its Collect and Run phases across all packages of the driver
	// invocation. Never nil.
	Facts FactSet

	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.report == nil {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// NewPass assembles a Pass; drivers and tests use it, analyzers never
// need to. report may be nil (Collect phases discard diagnostics).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sizes types.Sizes, facts FactSet, report func(Diagnostic)) *Pass {
	if facts == nil {
		facts = FactSet{}
	}
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, Sizes: sizes, Facts: facts, report: report}
}

// Diagnostic is one finding. Position resolution happens at print
// time through the FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// FactSet is an analyzer's module-wide fact store, keyed by an
// analyzer-chosen string (the convention is "pkgpath.Type.field").
// Values are whatever Go value the analyzer records, and a lookup
// type-asserts it back; store values, not pointers into state a later
// pass may mutate. Reading is a plain map index. It is not safe for
// concurrent writes: Collect runs sequentially, Run only reads.
type FactSet map[string]any

// Set records a fact, keeping the first value if already present.
func (f FactSet) Set(key string, val any) {
	if _, ok := f[key]; !ok {
		f[key] = val
	}
}

// SortDiagnostics orders diagnostics by file position then analyzer
// name, the order drivers print them in.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
