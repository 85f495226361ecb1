// Command benchjson runs a benchmark suite and records the results in a
// JSON trajectory file, so successive PRs can show measured deltas instead
// of asserted ones (see docs/DOCDB.md, "Benchmark methodology"). It
// defaults to the docdb query-engine suite (BENCH_docdb.json); -bench,
// -pkg and -out retarget it at any other suite — the selection engine's
// serving benchmarks record their trajectory (see docs/SERVING.md) with:
//
//	go run ./cmd/benchjson -label after -bench BenchmarkServing \
//	    -pkg ./internal/selection -out BENCH_serving.json
//
// and the path-discovery suite (see docs/PATHDISC.md) records its
// trajectory, labelled by AS count, with:
//
//	go run ./cmd/benchjson -label after -bench BenchmarkPathDisc \
//	    -pkg . -out BENCH_pathdisc.json
//
// Usage:
//
//	go run ./cmd/benchjson -label after            # run + record
//	go run ./cmd/benchjson -label pr4 -benchtime 2s
//	go run ./cmd/benchjson -parse out.txt -label x # record a saved run
//
// Each invocation replaces the named label in the -out file and leaves
// every other label untouched, so "before" numbers captured at the start of
// a PR survive the "after" run. Every "key=value" element of a benchmark's
// path (.../ases=1000/k=4) is recorded in that row's labels map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed "BenchmarkX-8  N  ns/op ..." line.
type benchResult struct {
	Name    string  `json:"name"`
	Iters   int64   `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
	// Labels holds every "key=value" element of the benchmark's path, the
	// value as written (BenchmarkLoadServing/fleet=16/shards=4/dist=zipf-8
	// → fleet 16, shards 4, dist zipf); nil when the path has none.
	Labels   map[string]string `json:"labels,omitempty"`
	BPerOp   int64             `json:"bytes_per_op,omitempty"`
	AllocsOp int64             `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric columns (rps, p99_ms, ...)
	// keyed by unit; nil when a benchmark reports none.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// trajectory is the whole BENCH_docdb.json file: labelled benchmark runs,
// typically "before"/"after" per PR.
type trajectory struct {
	Command string                   `json:"command"`
	Runs    map[string][]benchResult `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		label     = fs.String("label", "", "label for this run (required), e.g. before, after, pr4")
		out       = fs.String("out", "BENCH_docdb.json", "trajectory file to update")
		bench     = fs.String("bench", "BenchmarkDocDB", "benchmark name regex passed to go test")
		pkg       = fs.String("pkg", "./internal/docdb", "package holding the benchmarks")
		benchtime = fs.String("benchtime", "1s", "go test -benchtime value")
		parse     = fs.String("parse", "", "parse a saved 'go test -bench' output file instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *label == "" {
		fmt.Fprintln(stderr, "benchjson: -label is required")
		return 2
	}

	var rawOut []byte
	cmdline := fmt.Sprintf("go test -run ^$ -bench %s -benchtime %s -benchmem %s", *bench, *benchtime, *pkg)
	if *parse != "" {
		b, err := os.ReadFile(*parse)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		rawOut = b
	} else {
		fmt.Fprintf(stdout, "benchjson: %s\n", cmdline)
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench,
			"-benchtime", *benchtime, "-benchmem", *pkg)
		cmd.Stderr = stderr
		b, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: go test: %v\n%s", err, b)
			return 1
		}
		rawOut = b
	}

	results := parseBench(string(rawOut))
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines found")
		return 1
	}

	traj := trajectory{Runs: map[string][]benchResult{}}
	if b, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(b, &traj); err != nil {
			fmt.Fprintf(stderr, "benchjson: existing %s is not valid JSON: %v\n", *out, err)
			return 1
		}
		if traj.Runs == nil {
			traj.Runs = map[string][]benchResult{}
		}
	}
	traj.Command = cmdline
	traj.Runs[*label] = results

	b, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: recorded %d benchmarks under label %q in %s (labels: %s)\n",
		len(results), *label, *out, strings.Join(labels(traj), ", "))
	return 0
}

// benchLine matches the head of a testing package benchmark output line;
// the tail is a sequence of "<value> <unit>" measurement pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(\S.*)$`)

// procsSuffix is the "-N" GOMAXPROCS suffix go test appends to a
// benchmark name.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseLabels collects the "key=value" elements of a benchmark name's path
// (everything after the top-level name), the GOMAXPROCS suffix stripped.
func parseLabels(name string) map[string]string {
	var labels map[string]string
	elems := strings.Split(procsSuffix.ReplaceAllString(name, ""), "/")
	for _, e := range elems[1:] {
		if k, v, ok := strings.Cut(e, "="); ok && k != "" {
			if labels == nil {
				labels = map[string]string{}
			}
			labels[k] = v
		}
	}
	return labels
}

// parseBench extracts benchmark results from go test -bench output. The
// measurement tail is parsed pairwise, so custom b.ReportMetric columns
// (which the testing package prints between ns/op and the -benchmem
// columns) land in Metrics instead of breaking the line match.
func parseBench(out string) []benchResult {
	var results []benchResult
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		r := benchResult{Name: m[1], Labels: parseLabels(m[1])}
		r.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		fields := strings.Fields(m[3])
		sawNs := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp, sawNs = v, true
			case "B/op":
				r.BPerOp = int64(v)
			case "allocs/op":
				r.AllocsOp = int64(v)
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if !sawNs {
			continue // not a measurement line (e.g. "BenchmarkX --- FAIL")
		}
		results = append(results, r)
	}
	return results
}

func labels(t trajectory) []string {
	out := make([]string, 0, len(t.Runs))
	for l := range t.Runs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
