package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// In-source suppression. An intentional protocol deviation is
// documented where it lives with
//
//	//optiqlvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// either at the end of the flagged line or on the line directly
// above it. The reason is mandatory — a suppression without one is
// itself a diagnostic (analyzer name "ignorecheck", not
// suppressible), as is a directive that no diagnostic matched, so
// stale suppressions cannot accumulate.

// IgnoreCheckName is the pseudo-analyzer name under which malformed
// and unused suppression directives are reported.
const IgnoreCheckName = "ignorecheck"

const ignorePrefix = "optiqlvet:ignore"

// Ignore is one parsed suppression directive.
type Ignore struct {
	Pos       token.Pos
	File      string
	Line      int
	Analyzers map[string]bool
	Reason    string
	used      bool
}

// ParseIgnores scans the files' comments for suppression directives.
// Malformed directives (missing analyzer list or missing reason) are
// reported as ignorecheck diagnostics rather than returned.
func ParseIgnores(fset *token.FileSet, files []*ast.File) ([]*Ignore, []Diagnostic) {
	var igs []*Ignore
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if strings.HasPrefix(text, "//") {
					text = text[2:]
				} else if strings.HasPrefix(text, "/*") {
					text = strings.TrimSuffix(text[2:], "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				names, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if names == "" {
					diags = append(diags, Diagnostic{Pos: c.Pos(), Analyzer: IgnoreCheckName,
						Message: "optiqlvet:ignore directive names no analyzer"})
					continue
				}
				if reason == "" {
					diags = append(diags, Diagnostic{Pos: c.Pos(), Analyzer: IgnoreCheckName,
						Message: "optiqlvet:ignore directive carries no reason; every intentional protocol deviation must be justified in-source"})
					continue
				}
				ig := &Ignore{
					Pos:       c.Pos(),
					File:      fset.Position(c.Pos()).Filename,
					Line:      fset.Position(c.Pos()).Line,
					Analyzers: make(map[string]bool),
					Reason:    reason,
				}
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						ig.Analyzers[n] = true
					}
				}
				igs = append(igs, ig)
			}
		}
	}
	return igs, diags
}

// FilterIgnored drops diagnostics that a directive on the same or the
// directly preceding line suppresses, marking those directives used.
// ignorecheck diagnostics are never suppressed. Directives that
// suppressed nothing are reported so stale suppressions surface.
func FilterIgnored(fset *token.FileSet, igs []*Ignore, diags []Diagnostic) []Diagnostic {
	byLoc := make(map[string][]*Ignore)
	for _, ig := range igs {
		key := ig.File
		byLoc[key] = append(byLoc[key], ig)
	}
	kept := diags[:0:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		if d.Analyzer != IgnoreCheckName {
			for _, ig := range byLoc[pos.Filename] {
				if (ig.Line == pos.Line || ig.Line == pos.Line-1) && ig.Analyzers[d.Analyzer] {
					ig.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, ig := range igs {
		if !ig.used {
			kept = append(kept, Diagnostic{Pos: ig.Pos, Analyzer: IgnoreCheckName,
				Message: "unused optiqlvet:ignore directive (no diagnostic suppressed); delete it or fix the analyzer list"})
		}
	}
	return kept
}
