// Package load turns `go list` output into parsed, type-checked
// packages for the analyzers — the stdlib-only stand-in for
// golang.org/x/tools/go/packages.
//
// The loader shells out to the go command once for the pattern
// expansion (`go list -deps -json`, which prints packages in
// dependency order, dependencies first) and type-checks everything
// with go/types using a map-backed importer: standard-library
// dependencies are checked from source with function bodies ignored
// (types only — cheap), module packages are checked fully with
// complete type information. Test files are folded in the way the go
// tool builds them: in-package _test.go files augment their package,
// external test packages (package foo_test) are separate targets that
// import the augmented variant.
//
// cgo is disabled for the file-list computation, so the pure-Go
// variants of std packages are selected and no C toolchain is needed.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one type-checked analysis target.
type Package struct {
	// Path is the import path; external test packages carry the go
	// tool's convention suffix ("optiql/internal/btree_test").
	Path string
	Name string
	Dir  string
	// Files are the parsed sources with comments, in go list order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestVariant marks augmented (in-package tests folded in) and
	// external test packages.
	TestVariant bool
}

// Result is a Load invocation's outcome.
type Result struct {
	Fset *token.FileSet
	// Targets are the packages to analyze: every module package
	// matched by the patterns (test-augmented when it has in-package
	// test files), plus external test packages. Dependency packages
	// are type-checked but not returned.
	Targets []*Package
	// TypeErrors are type-check errors in target packages. A non-empty
	// list means analysis results are unreliable; drivers should
	// report them and fail.
	TypeErrors []error
	// Sizes is the gc layout for the current GOARCH.
	Sizes types.Sizes
}

// Config parameterizes Load.
type Config struct {
	// Dir is where the go command runs; it must be inside the module.
	// Empty means the current directory.
	Dir string
	// Patterns are go package patterns; default ["./..."].
	Patterns []string
}

type listPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	DepOnly      bool
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Module       *struct{ Path, Dir, GoVersion string }
	Error        *struct{ Err string }
}

type loader struct {
	cfg   Config
	fset  *token.FileSet
	sizes types.Sizes
	list  map[string]*listPkg       // go list metadata by import path
	pkgs  map[string]*types.Package // plain (non-test) checked packages
	srcs  map[string][]*ast.File    // parsed sources of module packages
	depth int                       // on-demand import recursion guard
	errs  []error
}

// Load lists, parses and type-checks the packages matched by cfg.
func Load(cfg Config) (*Result, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	ld := &loader{
		cfg:   cfg,
		fset:  token.NewFileSet(),
		sizes: types.SizesFor("gc", runtime.GOARCH),
		list:  make(map[string]*listPkg),
		pkgs:  make(map[string]*types.Package),
		srcs:  make(map[string][]*ast.File),
	}
	if ld.sizes == nil {
		ld.sizes = types.SizesFor("gc", "amd64")
	}

	// One go list call covers pattern expansion and the dependency
	// closure: with -deps, go list prints dependencies first and marks
	// the non-matched ones DepOnly, so the matched targets come out
	// already in dependency order — which is exactly the order the
	// interprocedural Collect phases need (callee summaries before
	// callers).
	all, err := ld.golist(cfg.Patterns, true)
	if err != nil {
		return nil, err
	}
	var targets []*listPkg
	for _, lp := range all {
		if !lp.DepOnly {
			if lp.Error != nil {
				return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
			}
			targets = append(targets, lp)
		}
		if _, done := ld.pkgs[lp.ImportPath]; !done {
			ld.checkPlain(lp, lp.Module != nil)
		}
	}

	// Test-only imports of the targets (testing, httptest, ...).
	var missing []string
	seen := make(map[string]bool)
	for _, lp := range targets {
		for _, imp := range append(append([]string{}, lp.TestImports...), lp.XTestImports...) {
			if imp == "C" || seen[imp] {
				continue
			}
			seen[imp] = true
			if _, ok := ld.pkgs[imp]; !ok && imp != "unsafe" {
				missing = append(missing, imp)
			}
		}
	}
	if len(missing) > 0 {
		extra, err := ld.golist(missing, true)
		if err != nil {
			return nil, err
		}
		for _, lp := range extra {
			if _, done := ld.pkgs[lp.ImportPath]; !done {
				ld.checkPlain(lp, false)
			}
		}
	}

	// Assemble targets: augmented module packages plus xtest packages.
	res := &Result{Fset: ld.fset, Sizes: ld.sizes}
	for _, lp := range targets {
		lp = ld.list[lp.ImportPath] // canonical entry (with file lists)
		if lp == nil || lp.Module == nil {
			continue
		}
		pkg := ld.targetPackage(lp)
		if pkg != nil {
			res.Targets = append(res.Targets, pkg)
		}
		if len(lp.XTestGoFiles) > 0 {
			if xp := ld.xtestPackage(lp, pkg); xp != nil {
				res.Targets = append(res.Targets, xp)
			}
		}
	}
	res.TypeErrors = ld.errs
	return res, nil
}

// golist runs the go command and decodes its JSON stream.
func (ld *loader) golist(patterns []string, deps bool) ([]*listPkg, error) {
	args := []string{"list", "-e", "-json"}
	if deps {
		args = append(args, "-deps")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ld.cfg.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
		if prev, ok := ld.list[lp.ImportPath]; !ok || len(prev.GoFiles) == 0 {
			ld.list[lp.ImportPath] = lp
		}
	}
	return pkgs, nil
}

func (ld *loader) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			ld.errs = append(ld.errs, err)
		}
		if f != nil {
			files = append(files, f)
		}
	}
	return files
}

// checkPlain type-checks a package's non-test sources and records it
// for imports. Module packages keep their sources and full info
// trees; dependencies are checked bodies-ignored, errors tolerated.
func (ld *loader) checkPlain(lp *listPkg, isModule bool) *types.Package {
	if lp.ImportPath == "unsafe" {
		ld.pkgs["unsafe"] = types.Unsafe
		return types.Unsafe
	}
	files := ld.parse(lp.Dir, lp.GoFiles)
	if isModule {
		ld.srcs[lp.ImportPath] = files
	}
	conf := types.Config{
		Importer:                 ld,
		Sizes:                    ld.sizes,
		IgnoreFuncBodies:         !isModule,
		DisableUnusedImportCheck: !isModule,
		FakeImportC:              true,
		Error: func(err error) {
			if isModule {
				ld.errs = append(ld.errs, err)
			}
		},
	}
	if isModule && lp.Module != nil && lp.Module.GoVersion != "" {
		conf.GoVersion = "go" + lp.Module.GoVersion
	}
	pkg, _ := conf.Check(lp.ImportPath, ld.fset, files, nil)
	if pkg == nil {
		pkg = types.NewPackage(lp.ImportPath, lp.Name)
	}
	ld.pkgs[lp.ImportPath] = pkg
	return pkg
}

// Import implements types.Importer over the checked-package map, with
// on-demand loading as a fallback for paths go list did not surface
// (rare: implicit test dependencies).
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.depth > 2 {
		return nil, fmt.Errorf("load: import %q not resolved", path)
	}
	ld.depth++
	defer func() { ld.depth-- }()
	deps, err := ld.golist([]string{path}, true)
	if err != nil {
		return nil, err
	}
	for _, lp := range deps {
		if _, done := ld.pkgs[lp.ImportPath]; !done {
			ld.checkPlain(lp, false)
		}
	}
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("load: import %q not found", path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// targetPackage builds the analysis target for one module package:
// its sources re-checked with full type info, with in-package test
// files folded in.
func (ld *loader) targetPackage(lp *listPkg) *Package {
	names := append([]string{}, lp.GoFiles...)
	testVariant := false
	if len(lp.TestGoFiles) > 0 {
		names = append(names, lp.TestGoFiles...)
		testVariant = true
	}
	if len(names) == 0 {
		return nil
	}
	files := ld.parse(lp.Dir, names)
	info := newInfo()
	conf := types.Config{
		Importer:    ld,
		Sizes:       ld.sizes,
		FakeImportC: true,
		Error:       func(err error) { ld.errs = append(ld.errs, err) },
	}
	if lp.Module != nil && lp.Module.GoVersion != "" {
		conf.GoVersion = "go" + lp.Module.GoVersion
	}
	pkg, _ := conf.Check(lp.ImportPath, ld.fset, files, info)
	if pkg == nil {
		return nil
	}
	return &Package{
		Path: lp.ImportPath, Name: lp.Name, Dir: lp.Dir,
		Files: files, Types: pkg, Info: info, TestVariant: testVariant,
	}
}

// overrideImporter resolves one path to a specific package (the
// test-augmented variant) and everything else through the base.
type overrideImporter struct {
	base *loader
	path string
	pkg  *types.Package
}

func (o *overrideImporter) Import(path string) (*types.Package, error) {
	if path == o.path {
		return o.pkg, nil
	}
	return o.base.Import(path)
}

// xtestPackage builds the external test package (package foo_test),
// importing the augmented variant of its base package so exported
// test helpers declared in _test.go files resolve.
func (ld *loader) xtestPackage(lp *listPkg, base *Package) *Package {
	files := ld.parse(lp.Dir, lp.XTestGoFiles)
	if len(files) == 0 {
		return nil
	}
	imp := types.Importer(ld)
	if base != nil {
		imp = &overrideImporter{base: ld, path: lp.ImportPath, pkg: base.Types}
	}
	info := newInfo()
	conf := types.Config{
		Importer:    imp,
		Sizes:       ld.sizes,
		FakeImportC: true,
		Error:       func(err error) { ld.errs = append(ld.errs, err) },
	}
	path := lp.ImportPath + "_test"
	pkg, _ := conf.Check(path, ld.fset, files, info)
	if pkg == nil {
		return nil
	}
	return &Package{
		Path: path, Name: lp.Name + "_test", Dir: lp.Dir,
		Files: files, Types: pkg, Info: info, TestVariant: true,
	}
}
