// Package analysistest is the golden-test harness for the optiqlvet
// analyzers, modeled on golang.org/x/tools/go/analysis/analysistest:
// each analyzer has a testdata package of flagging and non-flagging
// cases, with expected diagnostics declared in-line as
//
//	code() // want "regexp matching the message"
//
// A line may carry several want strings (multiple diagnostics), and a
// line with no want comment asserts the absence of diagnostics — so
// the legitimate idioms in the testdata (the non-flagging cases) are
// first-class assertions, not just filler.
//
// Testdata lives in internal/analysis/testdata, which is its own tiny
// module (vettest) so the main module's builds and vet runs never see
// the deliberately broken code inside it. The stub locks/core/obs
// packages there reproduce the real signatures under the same package
// names, because the analyzers match primitives by package name —
// the tests exercise exactly the production matching path.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"optiql/internal/analysis"
	"optiql/internal/analysis/driver"
	"optiql/internal/analysis/load"
)

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run applies the analyzers to the given patterns of the testdata
// module rooted at dir and compares the diagnostics (suppression
// directives already applied, unused ones reported) against the want
// comments in the matched packages' files.
func Run(t *testing.T, dir string, patterns []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	rep, err := driver.Run(load.Config{Dir: dir, Patterns: patterns}, analyzers)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	for _, terr := range rep.Result.TypeErrors {
		t.Errorf("testdata does not type-check: %v", terr)
	}

	var wants []*expectation
	fset := rep.Result.Fset
	for _, pkg := range rep.Result.Targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					idx := strings.Index(text, "want ")
					if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, m := range wantRE.FindAllString(text[idx+len("want "):], -1) {
						raw, err := strconv.Unquote(m)
						if err != nil {
							t.Fatalf("%s: malformed want string %s: %v", pos, m, err)
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: want regexp does not compile: %v", pos, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}

	for _, d := range rep.Diagnostics {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// RunPattern is Run for a single package pattern.
func RunPattern(t *testing.T, dir, pattern string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	Run(t, dir, []string{pattern}, analyzers...)
}
