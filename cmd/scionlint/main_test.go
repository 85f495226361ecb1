package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/upin/scionpath/internal/lint"
)

const fixturesDir = "../../internal/lint/testdata/src"

// TestRunFindsSeededViolations pins the acceptance criterion: the CLI must
// exit non-zero on the fixture module, with every analyzer represented.
func TestRunFindsSeededViolations(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", fixturesDir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	text := out.String()
	for _, analyzer := range []string{
		"lockcheck", "errcheck", "goroutinecapture", "timeafter", "hygiene",
		"ignorecheck", "determcheck", "ctxcheck", "snapshotcheck",
	} {
		if !strings.Contains(text, "["+analyzer+"]") {
			t.Errorf("output has no finding from %s:\n%s", analyzer, text)
		}
	}
	if !strings.Contains(text, "scionlint: ") {
		t.Errorf("output missing summary line:\n%s", text)
	}
}

// TestRunJSON checks the machine-readable report round-trips and agrees
// with the exit code.
func TestRunJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "-dir", fixturesDir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	var report struct {
		Schema      string            `json:"schema"`
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
		Summary     lint.Summary      `json:"summary"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("unmarshal report: %v\n%s", err, out.String())
	}
	if report.Schema != lint.JSONSchemaVersion {
		t.Errorf("schema = %q, want %q", report.Schema, lint.JSONSchemaVersion)
	}
	if len(report.Diagnostics) == 0 {
		t.Fatal("JSON report has no diagnostics")
	}
	if report.Summary.Findings != len(report.Diagnostics) {
		t.Errorf("summary.findings = %d, diagnostics = %d", report.Summary.Findings, len(report.Diagnostics))
	}
	if report.Summary.Suppressed == 0 {
		t.Error("summary.suppressed = 0, want the suppress fixture's directives counted")
	}
	for _, d := range report.Diagnostics {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

// TestRunCleanPackage pins exit 0 plus the zero-findings summary on a
// violation-free package.
func TestRunCleanPackage(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", fixturesDir, "./clean"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "0 findings in 1 packages") {
		t.Errorf("summary = %q, want 0 findings in 1 packages", strings.TrimSpace(out.String()))
	}
}

// TestRunUnknownAnalyzer pins the usage-error exit code.
func TestRunUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-analyzers", "nosuch", "-dir", fixturesDir, "./clean"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer error", errOut.String())
	}
}

// TestRunList checks -list names every default analyzer.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-list"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, a := range lint.Default() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %s:\n%s", a.Name, out.String())
		}
	}
}

// TestRunFix applies the ctxcheck rewrite on a throwaway copy of the
// fixture and verifies both the edit and that unfixable findings remain.
func TestRunFix(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixfix\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(fixturesDir, "ctxcheck", "ctxcheck.go"))
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "ctxcheck.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	code := run([]string{"-dir", dir, "-analyzers", "ctxcheck", "-fix", "."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (unfixable findings remain)\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "applied 1 fixes in 1 files") {
		t.Errorf("stderr = %q, want an applied-fixes note", errOut.String())
	}
	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), `return work(ctx, "x")`) {
		t.Errorf("fix did not rewrite context.Background() to the in-scope ctx:\n%s", fixed)
	}
	if strings.Contains(string(fixed), "context.Background()") {
		t.Errorf("context.Background() survived -fix:\n%s", fixed)
	}
	// The TODO() in Orphan has no ctx in scope: it must NOT be rewritten.
	if !strings.Contains(string(fixed), "context.TODO()") {
		t.Errorf("-fix rewrote the unfixable context.TODO():\n%s", fixed)
	}
}
