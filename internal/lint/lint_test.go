package lint

import (
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation pattern from a // want "regexp" comment.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loadFixtures loads the fixtures module once per test binary.
func loadFixtures(t *testing.T) (map[string]*Package, *token.FileSet) {
	t.Helper()
	pkgs, fset, err := Load(LoadConfig{Dir: "testdata/src"}, "./...")
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	byName := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byName[p.Name] = p
	}
	return byName, fset
}

// collectWants scans a fixture package for // want "…" comments. The
// expectation anchors to the line the comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					pos := fset.Position(c.Pos())
					t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
			}
		}
	}
	return wants
}

func TestAnalyzersGolden(t *testing.T) {
	byName, fset := loadFixtures(t)

	cases := []struct {
		pkg        string
		analyzers  []*Analyzer
		suppressed int
	}{
		{"lockcheck", []*Analyzer{LockCheck}, 0},
		// lockcheckv2 holds lockcheck's interprocedural rules: the
		// ...Locked hand-off, self-deadlock and lock-order cycles.
		{"lockcheckv2", []*Analyzer{LockCheck}, 0},
		// ignorecheck pins the unknown-analyzer report (a typo, a retired
		// name); the wildcard directive stays silent.
		{"ignorecheck", []*Analyzer{IgnoreCheck}, 0},
		{"errcheck", []*Analyzer{ErrCheck}, 0},
		{"goroutine", []*Analyzer{GoroutineCapture}, 0},
		{"timeafter", []*Analyzer{TimeAfter}, 0},
		{"hygiene", []*Analyzer{Hygiene}, 0},
		// suppress proves both directive shapes silence findings and that a
		// reasonless directive silences nothing.
		{"suppress", []*Analyzer{TimeAfter, Hygiene}, 2},
		{"determcheck", []*Analyzer{DetermCheck}, 0},
		// determwide pins the package-wide directive shape (directive in the
		// package doc marks every function a root).
		{"determwide", []*Analyzer{DetermCheck}, 0},
		{"ctxcheck", []*Analyzer{CtxCheck}, 0},
		{"snapshotcheck", []*Analyzer{SnapshotCheck}, 0},
		{"clean", Default(), 0},
	}

	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			pkg, ok := byName[tc.pkg]
			if !ok {
				t.Fatalf("fixture package %q not loaded", tc.pkg)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture %s has type errors: %v", tc.pkg, pkg.TypeErrors)
			}
			wants := collectWants(t, fset, pkg)
			diags, suppressed := Run(fset, []*Package{pkg}, tc.analyzers)

			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if w.matched || w.file != d.File || w.line != d.Line {
						continue
					}
					if w.pattern.MatchString(d.Message) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic %s:%d: [%s] %s", shortPath(d.File), d.Line, d.Analyzer, d.Message)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic at %s:%d matching %q", shortPath(w.file), w.line, w.pattern)
				}
			}
			if suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", suppressed, tc.suppressed)
			}
		})
	}
}

// TestIgnoreCheckFlagsReasonlessDirective pins the meta-analyzer: the
// directive in the suppress fixture that omits its reason must be reported
// (want comments can't express this one because a trailing comment would
// become the directive's reason).
func TestIgnoreCheckFlagsReasonlessDirective(t *testing.T) {
	byName, fset := loadFixtures(t)
	pkg := byName["suppress"]
	if pkg == nil {
		t.Fatal("suppress fixture not loaded")
	}
	diags, _ := Run(fset, []*Package{pkg}, []*Analyzer{IgnoreCheck})
	if len(diags) != 1 {
		t.Fatalf("ignorecheck diagnostics = %d, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "malformed lint directive") {
		t.Errorf("message = %q, want it to mention a malformed lint directive", d.Message)
	}
	if !strings.HasSuffix(d.File, "suppress.go") {
		t.Errorf("reported in %s, want suppress.go", d.File)
	}
}

func shortPath(p string) string {
	if i := strings.Index(p, "testdata"); i >= 0 {
		return p[i:]
	}
	return p
}
