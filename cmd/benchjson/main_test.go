package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/upin/scionpath/internal/docdb
BenchmarkDocDBFindEq/n=10k-8         	   12345	     97531 ns/op	   20480 B/op	     210 allocs/op
BenchmarkDocDBTopK/n=100k-8          	      50	  22334455.5 ns/op
BenchmarkDocDBInsert/backend=segment/n=100k-8 	       3	 163000000 ns/op
BenchmarkPathDiscCombineCached/ases=1000-8  	  200000	      5123 ns/op	    1024 B/op	      12 allocs/op
PASS
ok  	github.com/upin/scionpath/internal/docdb	3.2s
`

func TestParseBench(t *testing.T) {
	got := parseBench(sampleOutput)
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4", len(got))
	}
	first := got[0]
	if first.Name != "BenchmarkDocDBFindEq/n=10k-8" || first.Iters != 12345 ||
		first.NsPerOp != 97531 || first.BPerOp != 20480 || first.AllocsOp != 210 {
		t.Errorf("first result: %+v", first)
	}
	second := got[1]
	if second.Name != "BenchmarkDocDBTopK/n=100k-8" || second.NsPerOp != 22334455.5 || second.BPerOp != 0 {
		t.Errorf("second result: %+v", second)
	}
	wantLabels := []map[string]string{
		{"n": "10k"},
		{"n": "100k"},
		{"backend": "segment", "n": "100k"},
		{"ases": "1000"},
	}
	for i, want := range wantLabels {
		if !reflect.DeepEqual(got[i].Labels, want) {
			t.Errorf("result %d labels %v, want %v", i, got[i].Labels, want)
		}
	}
	if got[3].NsPerOp != 5123 {
		t.Errorf("fourth result: %+v", got[3])
	}
}

// TestParseLabels: any key=value element becomes a label, keys no suite
// used before included; the GOMAXPROCS suffix is not part of the last
// value; the top-level name and plain elements are not labels.
func TestParseLabels(t *testing.T) {
	for name, want := range map[string]map[string]string{
		"BenchmarkX":                               nil,
		"BenchmarkX-8":                             nil,
		"BenchmarkX/plain/segment-4":               nil,
		"BenchmarkX/ases=35/k=2":                   {"ases": "35", "k": "2"},
		"BenchmarkX/ases=35/k=2-16":                {"ases": "35", "k": "2"},
		"BenchmarkX/docs=30000/match=32/indexed-2": {"docs": "30000", "match": "32"},
		"BenchmarkX/unseen_key=v1.5/dist=zipf-1":   {"unseen_key": "v1.5", "dist": "zipf"},
		"BenchmarkX/=orphan/k=":                    {"k": ""},
	} {
		if got := parseLabels(name); !reflect.DeepEqual(got, want) {
			t.Errorf("parseLabels(%q) = %v, want %v", name, got, want)
		}
	}
}

const loadOutput = `goos: linux
pkg: github.com/upin/scionpath/internal/load
BenchmarkLoadServing/fleet=16/shards=4/dist=zipf-1  	       1	 512345678 ns/op	        42.50 p50_ms	       120.8 p99_ms	       891.2 rps	        0.01250 unavailable_rate	  123456 B/op	     789 allocs/op
BenchmarkLoadServing/fleet=8/shards=1/dist=uniform-1	       1	 987654321 ns/op	       310.0 rps
BenchmarkLoadChaos/fleet=16/shards=4/dist=zipf-1    	       1	 700000000 ns/op	         2.000 recovery_buckets
PASS
`

// TestParseBenchLoadLabels: fleet=/shards=/dist= land in their fields and
// custom b.ReportMetric columns land in Metrics, with -benchmem columns
// still parsed around them.
func TestParseBenchLoadLabels(t *testing.T) {
	got := parseBench(loadOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3", len(got))
	}
	first := got[0]
	if want := map[string]string{"fleet": "16", "shards": "4", "dist": "zipf"}; !reflect.DeepEqual(first.Labels, want) {
		t.Errorf("labels: %+v", first)
	}
	if first.NsPerOp != 512345678 || first.BPerOp != 123456 || first.AllocsOp != 789 {
		t.Errorf("standard columns lost around custom metrics: %+v", first)
	}
	want := map[string]float64{
		"p50_ms": 42.50, "p99_ms": 120.8, "rps": 891.2, "unavailable_rate": 0.01250,
	}
	for unit, v := range want {
		if first.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, first.Metrics[unit], v)
		}
	}
	second := got[1]
	if second.Labels["fleet"] != "8" || second.Labels["shards"] != "1" || second.Labels["dist"] != "uniform" ||
		second.Metrics["rps"] != 310.0 || second.BPerOp != 0 {
		t.Errorf("second result: %+v", second)
	}
	if got[2].Metrics["recovery_buckets"] != 2 {
		t.Errorf("third result: %+v", got[2])
	}
	// Non-load results must not pick up load labels.
	if plain := parseBench(sampleOutput); plain[0].Labels["fleet"] != "" || plain[0].Metrics != nil {
		t.Errorf("docdb result carries load labels: %+v", plain[0])
	}
}

// TestParseBenchKLabel: the multipath trajectory's k= label lands beside
// the AS count, and k-independent suites carry none.
func TestParseBenchKLabel(t *testing.T) {
	out := `pkg: github.com/upin/scionpath/internal/selection
BenchmarkMultipathSelectSet/ases=35/k=2-8   	   90000	     13000 ns/op	    4096 B/op	      40 allocs/op
BenchmarkMultipathSelectSet/ases=1000/k=4-8 	    2000	    529000 ns/op
PASS
`
	got := parseBench(out)
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2", len(got))
	}
	if got[0].Labels["ases"] != "35" || got[0].Labels["k"] != "2" {
		t.Errorf("first result labels: %+v", got[0])
	}
	if got[1].Labels["ases"] != "1000" || got[1].Labels["k"] != "4" || got[1].NsPerOp != 529000 {
		t.Errorf("second result: %+v", got[1])
	}
	// The k= label must survive JSON round-tripping under its own key.
	b, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"labels":{"ases":"35","k":"2"}`)) {
		t.Errorf("k missing from JSON: %s", b)
	}
	if plain := parseBench(sampleOutput); plain[0].Labels["k"] != "" || plain[3].Labels["k"] != "" {
		t.Errorf("k-independent results carry k: %+v, %+v", plain[0], plain[3])
	}
}

// TestParseBenchSkipsNonMeasurement: lines without an ns/op column (FAIL
// markers, truncated output) are dropped, not recorded as zeros.
func TestParseBenchSkipsNonMeasurement(t *testing.T) {
	got := parseBench("BenchmarkBroken-8   \t 1   --- FAIL\nBenchmarkOK-8 \t 2 \t 5 ns/op\n")
	if len(got) != 1 || got[0].Name != "BenchmarkOK-8" {
		t.Fatalf("parsed: %+v", got)
	}
}

func TestRunParseModeMergesLabels(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_docdb.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-label", "before", "-parse", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	// A second label must not clobber the first.
	if code := run([]string{"-label", "after", "-parse", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(b, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) != 2 || len(traj.Runs["before"]) != 4 || len(traj.Runs["after"]) != 4 {
		t.Fatalf("trajectory runs: %+v", traj.Runs)
	}
}

// TestRunRewriteKeepsEveryLabel: recording a new label re-marshals the
// whole file, and every row already on file keeps its labels — the keys
// no parse of this run produced included.
func TestRunRewriteKeepsEveryLabel(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_x.json")
	onFile := `{
  "command": "go test -bench old",
  "runs": {
    "old": [
      {"name": "BenchmarkOld/rare=1/dist=zipf-8", "iters": 3, "ns_per_op": 7, "labels": {"rare": "1", "dist": "zipf"}},
      {"name": "BenchmarkPlain-8", "iters": 1, "ns_per_op": 9}
    ]
  }
}`
	if err := os.WriteFile(out, []byte(onFile), 0o644); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(loadOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-label", "new", "-parse", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(b, &traj); err != nil {
		t.Fatal(err)
	}
	old := traj.Runs["old"]
	if len(old) != 2 || !reflect.DeepEqual(old[0].Labels, map[string]string{"rare": "1", "dist": "zipf"}) || old[1].Labels != nil {
		t.Fatalf("rows on file after the rewrite: %+v", old)
	}
	if got := traj.Runs["new"]; len(got) != 3 || got[2].Labels["fleet"] != "16" {
		t.Fatalf("new rows: %+v", got)
	}
}

func TestRunRequiresLabel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunRejectsNoResults(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-label", "x", "-parse", in, "-out", filepath.Join(dir, "o.json")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
