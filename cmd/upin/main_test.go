package main

import (
	"bytes"
	"io"
	"os"
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

func TestUpinEndToEnd(t *testing.T) {
	out, code := capture(t, func() int {
		return run([]string{"-d", "1", "-profile", "voip", "-iterations", "2",
			"-exclude-country", "United States"})
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"controller decision", "installed sequence", "traced", "verifier: satisfied=true",
		"top recommendations (voip profile)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestUpinNarrowDomainReportsUnverifiable(t *testing.T) {
	out, code := capture(t, func() int {
		return run([]string{"-d", "1", "-domain", "17", "-iterations", "2"})
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "unverifiable (outside UPIN domain)") {
		t.Errorf("no unverifiable hops reported despite narrow domain:\n%s", out)
	}
}

func TestUpinErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                       // no destination
		{"-d", "zz"},             // bad destination
		{"-d", "16-ffaa:0:1004"}, // not a server
		{"-d", "1", "-profile", "warp"},
	} {
		if _, code := capture(t, func() int { return run(args) }); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestUpinUnsatisfiableRequestError(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	_, code := capture(t, func() int {
		return run([]string{"-d", "1", "-exclude-country", "Switzerland"})
	})
	w.Close()
	os.Stderr = old
	stderr, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	// internal/upin prefixes its errors already; the tool adds no second prefix.
	const want = "upin: controller: selection: no path to server 1 satisfies the request\n"
	if code != 1 || string(stderr) != want {
		t.Errorf("exit %d, stderr %q; want exit 1, stderr %q", code, stderr, want)
	}
}
