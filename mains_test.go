package scionpath

import (
	"errors"
	"go/build"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryMainHasATest keeps the commands and examples under test: a
// directory under cmd/ or examples/ that holds a main package must also
// hold a _test.go file.
func TestEveryMainHasATest(t *testing.T) {
	mains := 0
	for _, root := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := filepath.Join(root, e.Name())
			pkg, err := build.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if pkg.Name != "main" {
				continue
			}
			mains++
			if len(pkg.TestGoFiles)+len(pkg.XTestGoFiles) == 0 {
				t.Errorf("%s: main package without a _test.go file", dir)
			}
		}
	}
	if mains == 0 {
		t.Error("no main package found under cmd/ or examples/")
	}
}
