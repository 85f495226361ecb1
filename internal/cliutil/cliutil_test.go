package cliutil

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/upin/scionpath/internal/topology"
)

func TestNewWorldInMemory(t *testing.T) {
	w, err := NewWorld(1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Topo == nil || w.Net == nil || w.Daemon == nil || w.DB == nil {
		t.Fatal("incomplete world")
	}
	if w.DB.Collection("availableServers").Count() != 21 {
		t.Error("servers not seeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("in-memory close: %v", err)
	}
}

func TestNewWorldJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.db")
	w, err := NewWorld(1, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open: seeded servers persist, no duplicate seeding.
	w2, err := NewWorld(1, path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.DB.Collection("availableServers").Count(); got != 21 {
		t.Errorf("replayed %d servers", got)
	}
}

func TestNewWorldBadPath(t *testing.T) {
	if _, err := NewWorld(1, filepath.Join(t.TempDir(), "no", "dir", "db.db")); err == nil {
		t.Error("bad journal path accepted")
	}
}

func TestResolveDestination(t *testing.T) {
	w, err := NewWorld(1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// By server id.
	ia, id, err := w.ResolveDestination("1")
	if err != nil || id != 1 || ia.Zero() {
		t.Errorf("by id: %v %d %v", ia, id, err)
	}
	// By ISD-AS.
	ia2, id2, err := w.ResolveDestination(topology.AWSIreland.String())
	if err != nil || ia2 != topology.AWSIreland || id2 == 0 {
		t.Errorf("by IA: %v %d %v", ia2, id2, err)
	}
	// By host address.
	ia3, _, err := w.ResolveDestination("16-ffaa:0:1002,[172.31.16.10]")
	if err != nil || ia3 != topology.AWSIreland {
		t.Errorf("by host: %v %v", ia3, err)
	}
	// Non-server AS in topology: id 0 but resolvable.
	ia4, id4, err := w.ResolveDestination("16-ffaa:0:1004")
	if err != nil || id4 != 0 || ia4 != topology.AWSOhio {
		t.Errorf("non-server: %v %d %v", ia4, id4, err)
	}
	// Errors.
	for _, bad := range []string{"999", "zz", "99-ff00:0:1"} {
		if _, _, err := w.ResolveDestination(bad); err == nil {
			t.Errorf("ResolveDestination(%q) accepted", bad)
		}
	}
}

func TestFatalf(t *testing.T) {
	var buf bytes.Buffer
	code := Fatalf(&buf, "tool", "bad %s", "thing")
	if code != 1 {
		t.Errorf("code %d", code)
	}
	if !strings.Contains(buf.String(), "tool: bad thing") {
		t.Errorf("output %q", buf.String())
	}
}
