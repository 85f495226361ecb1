package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// writeLoadModule lays out a small module whose import DAG has width (two
// independent leaves) and depth (mid imports leaf1, top imports mid), so
// the type-check order has dependencies to get right.
func writeLoadModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module loadtest\n\ngo 1.22\n",
		"leaf1/leaf1.go": `package leaf1

func One() int { return 1 }
`,
		"leaf2/leaf2.go": `package leaf2

func Two() int { return 2 }
`,
		"mid/mid.go": `package mid

import "loadtest/leaf1"

func Three() int { return leaf1.One() + 2 }
`,
		"top/top.go": `package top

import (
	"loadtest/leaf2"
	"loadtest/mid"
)

func Five() int { return mid.Three() + leaf2.Two() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func loadedPaths(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Path
	}
	sort.Strings(out)
	return out
}

// Every package of the module is type-checked, dependencies first, with no
// errors.
func TestLoadTypeChecksInDependencyOrder(t *testing.T) {
	dir := writeLoadModule(t)
	want := []string{"loadtest/leaf1", "loadtest/leaf2", "loadtest/mid", "loadtest/top"}

	pkgs, _, err := Load(LoadConfig{Dir: dir}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if got := loadedPaths(pkgs); !reflect.DeepEqual(got, want) {
		t.Fatalf("packages = %v, want %v", got, want)
	}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s not type-checked", p.Path)
		}
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s has type errors: %v", p.Path, p.TypeErrors)
		}
	}
}

// A type-check failure in a dependency must surface: either the load fails
// or the broken package carries its type errors.
func TestLoadFailedDependencySurfaces(t *testing.T) {
	dir := writeLoadModule(t)
	// Break leaf1 so mid (and transitively top) cannot resolve it.
	broken := filepath.Join(dir, "leaf1", "leaf1.go")
	if err := os.WriteFile(broken, []byte("package leaf1\n\nfunc One() int { return undefinedIdent }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, _, err := Load(LoadConfig{Dir: dir}, "./...")
	if err != nil {
		return
	}
	for _, p := range pkgs {
		if p.Path == "loadtest/leaf1" && len(p.TypeErrors) == 0 {
			t.Error("broken leaf1 loaded without recorded type errors")
		}
	}
}

// An import cycle is rejected up front by the topological sort, before any
// package is type-checked.
func TestLoadImportCycleRejected(t *testing.T) {
	dir := writeLoadModule(t)
	cyclic := filepath.Join(dir, "leaf1", "cycle.go")
	if err := os.WriteFile(cyclic, []byte("package leaf1\n\nimport \"loadtest/mid\"\n\nvar _ = mid.Three\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(LoadConfig{Dir: dir}, "./...")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want import cycle error", err)
	}
}
