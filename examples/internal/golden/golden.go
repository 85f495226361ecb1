// Package golden compares an example's output byte for byte with a file
// under testdata. Run the tests with -update to rewrite the files from the
// output; a golden file changes only with a behaviour change.
package golden

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the output")

// Check fails t unless got equals the contents of the file at path.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (go test -update rewrites it); got:\n%s", path, got)
	}
}
