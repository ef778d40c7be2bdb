package driver_test

import (
	"os"
	"path/filepath"
	"testing"

	"optiql/internal/analysis/driver"
	"optiql/internal/analysis/load"
)

// moduleRoot walks up from the working directory to the go.mod that
// declares the optiql module.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestModuleClean is the smoke test behind the CI analysis job: the
// full optiqlvet suite over the whole module (tests included) must
// produce zero diagnostics, zero unused suppression directives, and
// zero type errors. A failure here means a protocol or allocation
// invariant regressed — fix the code or add a justified
// //optiqlvet:ignore, never loosen the analyzer.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list over the whole module")
	}
	rep, err := driver.Run(load.Config{Dir: moduleRoot(t), Patterns: []string{"./..."}}, driver.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range rep.Result.TypeErrors {
		t.Errorf("typecheck: %v", terr)
	}
	for _, d := range rep.Diagnostics {
		t.Errorf("%s: %s [%s]", rep.Result.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestByName pins the suite roster: every analyzer is resolvable by
// name, All holds exactly the roster, and unknown names miss.
func TestByName(t *testing.T) {
	roster := []string{"shcheck", "expair", "noalloc", "atomicmix", "padalign", "recycle", "tornread", "walorder"}
	if n := len(driver.All()); n != len(roster) {
		t.Fatalf("len(All()) = %d, want %d", n, len(roster))
	}
	for _, want := range roster {
		a := driver.ByName(want)
		if a == nil {
			t.Fatalf("ByName(%q) = nil", want)
		}
		if a.Name != want {
			t.Fatalf("ByName(%q).Name = %q", want, a.Name)
		}
	}
	if a := driver.ByName("nosuch"); a != nil {
		t.Fatalf("ByName(nosuch) = %v, want nil", a.Name)
	}
}
