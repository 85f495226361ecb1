package main

import (
	"bytes"
	"testing"

	"github.com/upin/scionpath/examples/internal/golden"
)

func TestFailover(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/failover.golden", out.Bytes())
}
