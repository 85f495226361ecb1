package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/measure"
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

// measuredDB builds a journal with a small campaign against server 1.
func measuredDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stats.db")
	w, err := cliutil.NewWorld(1, path)
	if err != nil {
		t.Fatal(err)
	}
	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, ServerIDs: []int{1},
		PingCount: 4, PingInterval: 5_000_000, // 5ms
		SkipBandwidth: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPathselectLatency(t *testing.T) {
	db := measuredDB(t)
	out, code := capture(t, func() int {
		return run([]string{"-d", "1", "-db", db, "-objective", "latency", "-top", "2"})
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "candidate paths to server 1") || !strings.Contains(out, "sequence:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestPathselectExclusion(t *testing.T) {
	db := measuredDB(t)
	out, code := capture(t, func() int {
		return run([]string{"-d", "1", "-db", db, "-exclude-country", "United States,Singapore"})
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if strings.Contains(out, "United States") {
		t.Errorf("excluded country appears in explanations:\n%s", out)
	}
}

func TestPathselectNoMatch(t *testing.T) {
	db := measuredDB(t)
	out, code := capture(t, func() int {
		return run([]string{"-d", "1", "-db", db, "-max-latency", "0.001"})
	})
	if code != 1 || !strings.Contains(out, "no path") {
		t.Errorf("exit %d output %q", code, out)
	}
}

func TestPathselectErrors(t *testing.T) {
	db := measuredDB(t)
	for _, args := range [][]string{
		{},                                  // missing flags
		{"-d", "1"},                         // missing db
		{"-d", "zz", "-db", db},             // bad destination
		{"-d", "16-ffaa:0:1004", "-db", db}, // not a catalogued server
		{"-d", "1", "-db", db, "-objective", "warp"},
	} {
		if _, code := capture(t, func() int { return run(args) }); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestPathselectSet(t *testing.T) {
	db := measuredDB(t)
	out, code := capture(t, func() int {
		return run([]string{"-d", "1", "-db", db, "-set", "2"})
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "path set of 2 to server 1") ||
		!strings.Contains(out, "disjointness") {
		t.Errorf("output:\n%s", out)
	}
	if n := strings.Count(out, "sequence:"); n != 2 {
		t.Errorf("%d sequences printed, want 2:\n%s", n, out)
	}
	// Unsatisfiable set requests fail like unsatisfiable rankings.
	if _, code := capture(t, func() int {
		return run([]string{"-d", "1", "-db", db, "-set", "2", "-max-latency", "0.001"})
	}); code == 0 {
		t.Error("unsatisfiable set request accepted")
	}
}
