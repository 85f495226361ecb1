package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, f func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := f()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	io.Copy(&buf, r)
	return buf.String(), code
}

func TestTestsuiteSomeOnly(t *testing.T) {
	out, code := capture(t, func() int {
		return run([]string{"2", "-some-only", "-ping-count", "3",
			"-ping-interval", "5ms", "-bw-duration", "200ms"})
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	for _, want := range []string{"2 iterations x 1 destinations", "stats stored:", "failures:          0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTestsuitePersistsAndSkip(t *testing.T) {
	db := filepath.Join(t.TempDir(), "stats.db")
	out, code := capture(t, func() int {
		return run([]string{"1", "-servers", "1", "-db", db,
			"-ping-count", "3", "-ping-interval", "5ms", "-no-bandwidth"})
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if _, err := os.Stat(db); err != nil {
		t.Fatalf("journal missing: %v", err)
	}
	// Second run with --skip reuses the collected paths from the journal.
	out2, code2 := capture(t, func() int {
		return run([]string{"1", "-skip", "-servers", "1", "-db", db,
			"-ping-count", "3", "-ping-interval", "5ms", "-no-bandwidth"})
	})
	if code2 != 0 {
		t.Fatalf("skip run exit %d: %s", code2, out2)
	}
	if strings.Contains(out2, "paths tested:      0") {
		t.Errorf("skip run tested nothing:\n%s", out2)
	}
}

func TestTestsuiteCSVExport(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	out, code := capture(t, func() int {
		return run([]string{"1", "-some-only", "-ping-count", "2",
			"-ping-interval", "2ms", "-no-bandwidth", "-csv", csv})
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "path_id") {
		t.Errorf("csv content:\n%s", string(data[:min(len(data), 200)]))
	}
	if !strings.Contains(out, "csv export:") {
		t.Errorf("summary missing csv line:\n%s", out)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTestsuiteIterationsPositionAfterFlags(t *testing.T) {
	// The wrapper accepts "./test_suite.sh 100 --skip" style ordering both ways.
	_, code := capture(t, func() int {
		return run([]string{"-some-only", "-ping-count", "2", "-ping-interval", "2ms", "-no-bandwidth", "1"})
	})
	if code != 0 {
		t.Fatalf("flags-first ordering rejected: exit %d", code)
	}
}

func TestTestsuiteErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                     // no iterations
		{"0"},                  // zero iterations
		{"-1"},                 // negative (parsed as flag -> error)
		{"abc"},                // non-numeric
		{"1", "-target", "zz"}, // bad target
		{"1", "-servers", "x"}, // bad server list
		{"1", "2"},             // two positionals
	} {
		if _, code := capture(t, func() int { return run(args) }); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}
