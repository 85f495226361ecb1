package main

import (
	"bytes"
	"testing"

	"github.com/upin/scionpath/examples/internal/golden"
)

func TestLowlatency(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/lowlatency.golden", out.Bytes())
}
