// Command bench is the repository's one end-to-end benchmark: five named
// workloads over the whole pipeline (beaconing → segment combination →
// measurement campaign → docdb → selection → UPIN front-end), end-to-end
// metrics from an untraced timed window, and per-layer metrics from a
// separate traced pass that times each layer's public entry point from
// outside. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
// Usage:
//
//	go run ./bench -seed 1                      # all workloads, window + traced pass
//	go run ./bench -workload churn -trace 0     # end-to-end only, JSON result last
//	go run ./bench -aa 10                       # A/A: spreads against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// hostFacts describe where a number was measured; every output carries them.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// traceMode selects what a run measures.
type traceMode int

const (
	traceBoth traceMode = -1 // window, then traced pass: the human default
	traceOff  traceMode = 0  // end-to-end metrics only, set-up repeated for its median
	traceOn   traceMode = 1  // shorter window for the counts, then traced pass and probes
)

type config struct {
	sc      scale
	seed    int64
	seconds float64
	mode    traceMode
	outDir  string
	out     io.Writer
	// tamper, when set, edits the oracle's expectations after set-up.
	// Only tests set it: it is how they show that a wrong expectation
	// fails the run and the process.
	tamper func(*expectations)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all five)")
		seed     = fs.Int64("seed", 1, "traffic seed: schedule, intent pool, cell contents, network weather")
		seconds  = fs.Float64("seconds", 10, "length of each timed window")
		traceArg = fs.Int("trace", int(traceBoth), "0: end-to-end metrics; 1: per-layer metrics; default both")
		aa       = fs.Int("aa", 0, "A/A: run the whole set N times (seeds seed..seed+N-1) and print spreads against the bounds")
		jsonOut  = fs.String("json", "", "also write every result, with host facts, to this file")
		outDir   = fs.String("out", "bench/out", "directory for trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traceArg < -1 || *traceArg > 1 || *aa < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace one of 0 or 1, -aa non-negative")
		return 2
	}
	todo := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{s}
	}
	cfg := config{sc: full, seed: *seed, seconds: *seconds, mode: traceMode(*traceArg), outDir: *outDir, out: stdout}
	return execute(ctx, cfg, todo, *aa, *jsonOut, stderr)
}

// execute runs the chosen workloads and reports; its return value is the
// process exit code — non-zero as soon as any validation failed.
func execute(ctx context.Context, cfg config, todo []spec, aa int, jsonOut string, stderr io.Writer) int {
	stdout := cfg.out
	h := host()
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)

	var all []*result
	code := 0
	if aa > 0 {
		cfg.mode = traceOff
	}
	for r := 0; r < max(1, aa); r++ {
		c := cfg
		c.seed = cfg.seed + int64(r)
		for _, s := range todo {
			res := runWorkload(ctx, s, c)
			res.print(stdout)
			all = append(all, res)
			if !res.Correct {
				fmt.Fprintf(stderr, "bench: %s: %s\n", s.name, res.Err)
				code = 1
			}
		}
	}
	if aa > 0 {
		printAA(stdout, all)
	}
	if jsonOut != "" {
		buf, err := json.MarshalIndent(struct {
			Host    hostFacts `json:"host"`
			Results []*result `json:"results"`
		}{h, all}, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", jsonOut, err)
			code = 1
		}
	}
	// Driver mode — one workload, one mode: the result object is the last
	// line of standard output, and a failed validation prints none.
	if len(todo) == 1 && aa == 0 && cfg.mode != traceBoth && code == 0 {
		if err := all[0].printDriverLine(stdout, cfg.mode); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return code
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Err       string  `json:"error,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// EndToEnd holds BENCHMARK.json's end_to_end metrics, Named the same
	// window under the issue's per-workload names, Layer the per_layer
	// metrics (traced runs only).
	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	Named    map[string]value `json:"named,omitempty"`
	Layer    map[string]value `json:"per_layer,omitempty"`
	Notes    []string         `json:"notes,omitempty"`
}

func (r *result) fail(err error) *result {
	r.Correct = false
	if r.Err == "" {
		r.Err = err.Error()
	}
	return r
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// print writes every metric as `workload metric value unit`.
func (r *result) print(w io.Writer) {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s # %s\n", r.Workload, n)
	}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, v.Value, v.Unit)
		}
	}
	for _, m := range namedMetrics {
		if v, ok := r.Named[m.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, v.Value, v.Unit)
		}
	}
	for _, m := range perLayer {
		if v, ok := r.Layer[m.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, v.Value, v.Unit)
		}
	}
}

// printDriverLine writes the one-object result BENCHMARK.json's contract
// asks for: every end_to_end metric untraced, every per_layer metric
// traced (an unexercised layer reads 0).
func (r *result) printDriverLine(w io.Writer, mode traceMode) error {
	metrics := map[string]value{}
	if mode == traceOff {
		for _, m := range endToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Value == 0 {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, m.Name)
			}
			metrics[m.Name] = v
		}
	} else {
		for _, m := range perLayer {
			v, ok := r.Layer[m.Name]
			if !ok {
				v = value{0, m.Unit}
			}
			metrics[m.Name] = v
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// printAA prints, per workload × end-to-end metric, the median, the
// quartiles, the interquartile spread and the largest deviation from the
// median as shares of the median, and whether the spread is inside the
// metric's bound — the check the driver applies to ten seeds.
func printAA(w io.Writer, all []*result) {
	fmt.Fprintf(w, "\n%-11s %-20s %3s %12s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr/med", "max/med", "bound", "inside")
	for _, s := range specs {
		for _, m := range endToEnd {
			var xs []float64
			for _, r := range all {
				if v, ok := r.EndToEnd[m.Name]; ok && r.Workload == s.name && r.Correct {
					xs = append(xs, v.Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			worst := 0.0
			for _, x := range xs {
				worst = max(worst, math.Abs(x-med)/med)
			}
			spread := (q3 - q1) / med
			verdict := "yes"
			if m.Name == "setup_s" {
				verdict = "exempt"
			} else if spread > m.Bound {
				verdict = "NO"
			}
			fmt.Fprintf(w, "%-11s %-20s %3d %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f  %s\n",
				s.name, m.Name, len(xs), med, q1, q3, spread, worst, m.Bound, verdict)
		}
	}
}
