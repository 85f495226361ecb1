package golden

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.golden")
	if err := os.WriteFile(path, []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	Check(t, path, []byte("a\nb\n"))
	for _, got := range []string{"a\nc\n", "a\n", "a\nb\nc\n", ""} {
		rec := &recorder{TB: t}
		Check(rec, path, []byte(got))
		if !rec.failed {
			t.Errorf("output %q matched the golden file", got)
		}
	}
}

func TestUpdate(t *testing.T) {
	*update = true
	defer func() { *update = false }()
	path := filepath.Join(t.TempDir(), "out.golden")
	Check(t, path, []byte("new\n"))
	if b, err := os.ReadFile(path); err != nil || string(b) != "new\n" {
		t.Fatalf("update wrote %q, %v", b, err)
	}
}

// recorder notes a failure instead of failing the enclosing test.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()                           {}
func (r *recorder) Errorf(format string, args ...any) { r.failed = true }
