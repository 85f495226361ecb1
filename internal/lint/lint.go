// Package lint is a self-contained static-analysis framework for this
// module, built on the standard library's go/ast, go/parser, go/token and
// go/types only (no external dependencies — go.mod stays empty). It exists
// because the measurement pipeline's correctness depends on concurrency
// discipline (the docdb store and journal, the simnet event engine) and on
// errors never being silently dropped during long measurement campaigns
// (§4.2.2's fault-tolerant batch insertion): the cheapest way to keep every
// future PR honest about both is a lint pass that runs in CI.
//
// The model follows golang.org/x/tools/go/analysis in miniature: an
// Analyzer inspects one loaded package at a time through a Pass and reports
// Diagnostics. cmd/scionlint wires the analyzers in Default() over the
// whole module.
//
// Findings are suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line, on the line above it, or in the doc
// comment of the enclosing top-level declaration (which suppresses the
// analyzer for the whole declaration). A whole file opts out with
// //lint:file-ignore <analyzer> <reason>. The reason is mandatory; an
// ignore directive without one, or naming an analyzer Default() does not
// have, does not suppress anything and is itself reported by the
// "ignorecheck" meta-analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity classifies a diagnostic. Both severities fail a CI run; the
// distinction is informational (warnings flag portability or style hazards,
// errors flag likely bugs).
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one finding, locatable and attributable to an analyzer.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	// Fix, when non-nil, is a machine-applicable rewrite that resolves the
	// finding (applied by scionlint -fix).
	Fix *Fix `json:"fix,omitempty"`
}

// Fix is one textual edit: replace [StartOffset, EndOffset) of File with
// NewText. Offsets are byte offsets into the file as loaded.
type Fix struct {
	File        string `json:"file"`
	StartOffset int    `json:"start_offset"`
	EndOffset   int    `json:"end_offset"`
	NewText     string `json:"new_text"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check. Run inspects the Pass's package and reports
// findings through it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description shown by scionlint -list.
	Doc string
	// Severity is the default severity of the analyzer's findings.
	Severity string
	// NeedsTypes marks analyzers that require type information; they are
	// skipped (with a load note) for packages whose type-check failed.
	NeedsTypes bool
	// NeedsCallGraph marks interprocedural analyzers; the Module call graph
	// is built (once per run) before they execute. Implies NeedsTypes.
	NeedsCallGraph bool
	// Run performs the analysis.
	Run func(*Pass)
}

// Module is the whole analyzed package set plus lazily built, shared,
// immutable-once-built analysis artifacts (call graph, deterministic-root
// closure, frozen-type set, lock analysis). Passes of one Run share one
// Module.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package

	graph      *CallGraph
	detWitness map[*types.Func]*types.Func
	frozen     map[*types.Named]token.Pos
	lockWorld  *lockWorld
}

// NewModule wraps a loaded package set for analysis.
func NewModule(fset *token.FileSet, pkgs []*Package) *Module {
	return &Module{Fset: fset, Pkgs: pkgs}
}

// Graph returns the module call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m.Pkgs)
	}
	return m.graph
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Mod is the whole analyzed module (shared, read-only substrate).
	Mod *Module

	diags []Diagnostic
}

// Reportf records a finding at pos with the analyzer's default severity.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, p.Analyzer.Severity, format, args...)
}

// ReportSeverityf records a finding with an explicit severity.
func (p *Pass) ReportSeverityf(pos token.Pos, severity, format string, args ...any) {
	p.report(pos, severity, format, args...)
}

func (p *Pass) report(pos token.Pos, severity, format string, args ...any) {
	p.diags = append(p.diags, p.makeDiag(pos, severity, format, args...))
}

// ReportfFix records a finding like Reportf plus a machine-applicable fix
// replacing the source range [pos, end) with newText.
func (p *Pass) ReportfFix(pos, end token.Pos, newText, format string, args ...any) {
	d := p.makeDiag(pos, p.Analyzer.Severity, format, args...)
	start := p.Fset.Position(pos)
	stop := p.Fset.Position(end)
	if start.Filename != "" && start.Filename == stop.Filename && start.Offset < stop.Offset {
		d.Fix = &Fix{
			File:        start.Filename,
			StartOffset: start.Offset,
			EndOffset:   stop.Offset,
			NewText:     newText,
		}
	}
	p.diags = append(p.diags, d)
}

func (p *Pass) makeDiag(pos token.Pos, severity, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	sev := severity
	if sev == "" {
		sev = SeverityError
	}
	return Diagnostic{
		Analyzer: p.Analyzer.Name,
		Severity: sev,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Run executes the analyzers over the packages, one package at a time, and
// returns surviving diagnostics sorted by position, plus the count of
// suppressed findings.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) (diags []Diagnostic, suppressed int) {
	mod := NewModule(fset, pkgs)
	for _, pkg := range pkgs {
		ignores := collectIgnores(fset, pkg)
		for _, a := range analyzers {
			if (a.NeedsTypes || a.NeedsCallGraph) && pkg.Info == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Mod: mod}
			a.Run(pass)
			for _, d := range pass.diags {
				if ignores.suppresses(d) {
					suppressed++
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Column != diags[j].Column {
			return diags[i].Column < diags[j].Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, suppressed
}

// ignoreDirective is one parsed //lint:ignore or //lint:file-ignore.
type ignoreDirective struct {
	analyzer  string
	reason    string
	file      string
	line      int  // line the comment sits on
	endLine   int  // last line the directive covers (declaration span)
	wholeFile bool // //lint:file-ignore
}

type ignoreSet struct {
	directives []ignoreDirective
}

func (s *ignoreSet) suppresses(d Diagnostic) bool {
	for _, dir := range s.directives {
		if dir.file != d.File || dir.reason == "" {
			continue
		}
		if dir.analyzer != d.Analyzer && dir.analyzer != "*" {
			continue
		}
		if dir.wholeFile {
			return true
		}
		// Same line, the line below the comment, or anywhere inside the
		// declaration the directive is attached to.
		if d.Line == dir.line || d.Line == dir.line+1 {
			return true
		}
		if dir.endLine > 0 && d.Line >= dir.line && d.Line <= dir.endLine {
			return true
		}
	}
	return false
}

const (
	ignorePrefix     = "//lint:ignore "
	fileIgnorePrefix = "//lint:file-ignore "
	// deterministicDirective marks determcheck roots (see determcheck.go):
	// in a function's doc comment it declares that function, anywhere else
	// in a file it declares the whole package. Optional trailing text is a
	// free-form note.
	deterministicDirective = "//lint:deterministic"
)

// parseDeterministic parses "//lint:deterministic[ note]". ok is false for
// any other comment, including longer words sharing the prefix
// ("//lint:deterministic-ish").
func parseDeterministic(text string) (note string, ok bool) {
	if !strings.HasPrefix(text, deterministicDirective) {
		return "", false
	}
	rest := text[len(deterministicDirective):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// collectIgnores scans a package's comments for lint directives. Directives
// in a declaration's doc comment (or in any comment group whose last line
// immediately precedes a top-level declaration) cover that declaration's
// whole span.
func collectIgnores(fset *token.FileSet, pkg *Package) *ignoreSet {
	set := &ignoreSet{}
	for _, f := range pkg.Files {
		// Map "line a comment group ends on" -> top-level decl starting on
		// the next line, so directive spans extend over the declaration.
		declAfterLine := make(map[int]ast.Decl)
		for _, decl := range f.Decls {
			declAfterLine[fset.Position(decl.Pos()).Line-1] = decl
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				dir.file = pos.Filename
				dir.line = pos.Line
				groupEnd := fset.Position(cg.End()).Line
				if decl, ok := declAfterLine[groupEnd]; ok {
					dir.endLine = fset.Position(decl.End()).Line
				}
				set.directives = append(set.directives, dir)
			}
		}
	}
	return set
}

// parseIgnore parses "//lint:ignore <analyzer> <reason>" and the file-wide
// variant. ok is false for non-directive comments.
func parseIgnore(text string) (ignoreDirective, bool) {
	var rest string
	var wholeFile bool
	switch {
	case strings.HasPrefix(text, ignorePrefix):
		rest = strings.TrimPrefix(text, ignorePrefix)
	case strings.HasPrefix(text, fileIgnorePrefix):
		rest = strings.TrimPrefix(text, fileIgnorePrefix)
		wholeFile = true
	default:
		return ignoreDirective{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ignoreDirective{wholeFile: wholeFile}, true
	}
	return ignoreDirective{
		analyzer:  fields[0],
		reason:    strings.TrimSpace(strings.Join(fields[1:], " ")),
		wholeFile: wholeFile,
	}, true
}

// Default returns the standard analyzer set, the tier the measurement
// pipeline is gated on.
func Default() []*Analyzer {
	return []*Analyzer{
		LockCheck,
		ErrCheck,
		GoroutineCapture,
		TimeAfter,
		Hygiene,
		IgnoreCheck,
		DetermCheck,
		CtxCheck,
		SnapshotCheck,
	}
}

// ByName resolves a comma-separated analyzer list ("lockcheck,errcheck").
func ByName(names string) ([]*Analyzer, error) {
	all := Default()
	if names == "" {
		return all, nil
	}
	index := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// IgnoreCheck reports malformed suppression directives and directives
// naming an analyzer Default() does not have (a typo, or a retired name):
// either silently suppresses nothing, which is worse than either working or
// failing loudly.
var IgnoreCheck = &Analyzer{
	Name:     "ignorecheck",
	Doc:      "report //lint:ignore directives that are missing the mandatory reason or name an unknown analyzer",
	Severity: SeverityError,
}

// Run is attached here rather than in the literal above: it reads Default(),
// which lists IgnoreCheck itself, and Go rejects that as an initialization
// cycle.
func init() { IgnoreCheck.Run = runIgnoreCheck }

func runIgnoreCheck(pass *Pass) {
	known := map[string]bool{"*": true}
	for _, a := range Default() {
		known[a.Name] = true
	}
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseIgnore(c.Text)
				switch {
				case !ok:
				case dir.analyzer == "" || dir.reason == "":
					pass.Reportf(c.Pos(), "malformed lint directive %q: want //lint:ignore <analyzer> <reason>", strings.TrimSpace(c.Text))
				case !known[dir.analyzer]:
					pass.Reportf(c.Pos(), "lint directive names unknown analyzer %q, so it suppresses nothing", dir.analyzer)
				}
			}
		}
	}
}
