package cliutil

import (
	"bytes"
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/upin/scionpath/internal/addr"
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

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		positional []string
		count      int
		skip       bool
		servers    string
		err        bool
	}{
		{name: "flag before", args: []string{"-c", "5", "dest"}, positional: []string{"dest"}, count: 5},
		{name: "flag after", args: []string{"dest", "-c", "5"}, positional: []string{"dest"}, count: 5},
		{name: "flags around", args: []string{"-skip", "a", "-c=2", "b", "--servers", "1"},
			positional: []string{"a", "b"}, count: 2, skip: true, servers: "1"},
		{name: "value not positional", args: []string{"-servers", "dest", "x"}, positional: []string{"x"}, servers: "dest"},
		{name: "terminator", args: []string{"-c", "3", "--", "-x", "-c", "9"}, positional: []string{"-x", "-c", "9"}, count: 3},
		{name: "terminator after positional", args: []string{"a", "--", "-skip"}, positional: []string{"a", "-skip"}},
		{name: "testsuite", args: []string{"--skip", "1", "--servers", "1"}, positional: []string{"1"}, skip: true, servers: "1"},
		{name: "none", args: nil},
		{name: "negative positional", args: []string{"-1"}, err: true},
		{name: "unknown flag after positional", args: []string{"dest", "--extnded"}, err: true},
		{name: "missing value", args: []string{"dest", "-c"}, err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			count := fs.Int("c", 0, "")
			skip := fs.Bool("skip", false, "")
			servers := fs.String("servers", "", "")
			pos, err := Parse(fs, tc.args)
			if tc.err {
				if err == nil {
					t.Fatalf("accepted, positional %q", pos)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pos, tc.positional) || *count != tc.count || *skip != tc.skip || *servers != tc.servers {
				t.Errorf("positional %q -c %d -skip %v -servers %q", pos, *count, *skip, *servers)
			}
		})
	}
}

func TestChoosePath(t *testing.T) {
	w, err := NewWorld(1, "")
	if err != nil {
		t.Fatal(err)
	}
	dst := topology.AWSIreland

	var out bytes.Buffer
	first, err := w.ChoosePath(&out, dst, "", false, 0)
	if err != nil || out.Len() != 0 || len(first.Hops) == 0 {
		t.Fatalf("default: %v %v %q", first, err, out.String())
	}
	pinned, err := w.ChoosePath(&out, dst, first.Sequence(), false, 0)
	if err != nil || pinned.Sequence() != first.Sequence() {
		t.Errorf("sequence: %v %v", pinned, err)
	}
	third, err := w.ChoosePath(&out, dst, "", true, 2)
	if err != nil || !strings.HasPrefix(out.String(), "Available paths to 16-ffaa:0:1002\n") ||
		!strings.HasSuffix(out.String(), "Using path 2: "+third.String()+"\n") {
		t.Errorf("interactive: %v %v\n%s", third, err, out.String())
	}

	for _, tc := range []struct {
		sequence    string
		interactive bool
		index       int
		dst         string
		want        string
	}{
		{sequence: "%%", want: "missing '-'"},
		{sequence: "1-0#0", want: "matches sequence"},
		{interactive: true, index: 40, want: "path index 40 out of range [0,40)"},
		{interactive: true, index: -1, want: "path index -1 out of range [0,40)"},
		{dst: "16-ffaa:0:9999", want: "no path to 16-ffaa:0:9999: "},
		{dst: "16-ffaa:0:9999", interactive: true, want: "16-ffaa:0:9999"},
	} {
		to := dst
		if tc.dst != "" {
			to = addr.MustParseIA(tc.dst)
		}
		if p, err := w.ChoosePath(io.Discard, to, tc.sequence, tc.interactive, tc.index); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: path %v, error %v; want %q", tc, p, err, tc.want)
		}
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":                          nil,
		" , ":                       nil,
		"United States":             {"United States"},
		" Ireland ,, United States": {"Ireland", "United States"},
	} {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}
