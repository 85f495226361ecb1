package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/topology"
)

// smoke shrinks both worlds so every workload sets up and runs in well
// under a second each; the windows are 1/50 of BENCHMARK.json's.
var smoke = scale{
	destsA: 6, pathsA: 60, statsA: 2,
	worldB: topology.GenerateSpec{
		Seed: 7, ISDs: 4, CoresPerISD: 2, NonCorePerISD: 10,
		MaxChildren: 4, CoreDegree: 3, MultiParentProb: 0.6,
	},
	destsB: 6,
	warmup: 60,
	traced: 150,
}

func smokeConfig(t *testing.T, mode traceMode, out *bytes.Buffer) config {
	t.Helper()
	return config{sc: smoke, seed: 3, seconds: 0.2, mode: mode, outDir: t.TempDir(), out: out}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	dests := []int{1, 2, 3, 4, 5, 6}
	for _, s := range specs {
		if s.campaign {
			continue
		}
		a, err := buildSchedule(s, 11, 2, dests)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildSchedule(s, 11, 2, dests)
		c, _ := buildSchedule(s, 12, 2, dests)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different schedules", s.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same schedule", s.name)
		}
		cells := 0
		for c, row := range a {
			for _, o := range row {
				if o.kind == opCell {
					cells++
					if c != 0 {
						t.Errorf("%s: client %d writes a cell; only client 0 may", s.name, c)
					}
				}
			}
		}
		if want := map[bool]int{true: scheduleLen / max(1, s.cellEvery)}[s.cellEvery > 0]; cells != want {
			t.Errorf("%s: %d cells scheduled, want %d", s.name, cells, want)
		}
	}
}

func TestPinRanksMakesTheFirstDestinationTheHottest(t *testing.T) {
	dests := []int{3, 5, 8, 13}
	s, _ := specByName("paths-hot")
	for seed := int64(1); seed <= 5; seed++ {
		sched, err := buildSchedule(s, seed, 2, dests)
		if err != nil {
			t.Fatal(err)
		}
		freq := map[int]int{}
		for _, row := range sched {
			for _, o := range row {
				freq[o.dest]++
			}
		}
		for i := 1; i < len(dests); i++ {
			if freq[dests[i]] > freq[dests[i-1]] {
				t.Errorf("seed %d: destination %d (rank %d) is requested more than %d: %v", seed, dests[i], i, dests[i-1], freq)
			}
		}
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if v, err := percentile(sample(1100), 0.99); err != nil || v != 1089 {
		t.Errorf("p99 of 0..1099 has ten samples beyond it and must read 1089: %v, %v", v, err)
	}
	if _, err := percentile(sample(1000), 0.99); err == nil {
		t.Error("p99 of 1000 has nine samples beyond it and must be refused")
	}
	if _, err := percentile(sample(100), 0.99); err == nil {
		t.Error("p99 of 100 samples must be refused")
	}
	if v, err := percentile(sample(5), 0.50); err != nil || v != 2 {
		t.Errorf("median of 0..4 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
	// tail degrades to what the sample supports and says which.
	if _, p := tail(sample(150), 0.99); p != 0.90 {
		t.Errorf("150 samples support p90, tail read p%v", p*100)
	}
	if _, p := tail(sample(20), 0.99); p != 0.50 {
		t.Errorf("20 samples support only the median, tail read p%v", p*100)
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestSelfTimeIsParentMinusChild(t *testing.T) {
	tr := newTrace()
	parent := tr.time(0, 1, "outer", func() { time.Sleep(2 * time.Millisecond) })
	child := tr.time(parent.ID, 1, "inner", func() { time.Sleep(time.Millisecond) })
	if child.Parent != parent.ID || child.Req != parent.Req || child.ID == parent.ID {
		t.Errorf("span links: parent %+v child %+v", parent, child)
	}
	if got, want := selfTime(parent, child), parent.dur()-child.dur(); got != want || got <= 0 {
		t.Errorf("selfTime = %v, want %v > 0", got, want)
	}
	a := span{Start: 100, End: 400}
	b := span{Start: 0, End: 350}
	if selfTime(a, b) != -50 {
		t.Errorf("separate sweeps can undercut: selfTime = %v, want -50ns as measured", selfTime(a, b))
	}
	path, err := tr.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Workload != "unit" || len(doc.Spans) != 2 {
		t.Errorf("trace file: %v %+v", err, doc)
	}
}

// A failed request counts against fail_ratio and never enters a latency
// sample: the handler answers every third request with a 500.
func TestFailedRequestsCarryNoLatency(t *testing.T) {
	var n atomic.Int64
	srv, served, baseURL, err := listen(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte(`[{"path_id":"1_0","avg_latency_ms":1,"samples":2}]`))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close(); <-served }()
	c := &fleetClient{id: "t", t: &tier{baseURL: baseURL, client: &http.Client{}}, exp: &expectations{}}
	for i := 0; i < 30; i++ {
		c.request(context.Background(), op{kind: opPaths, dest: 1})
	}
	lat := c.w.lat[opPaths]
	if lat.failed != 10 || len(lat.us) != 20 {
		t.Fatalf("%d failed, %d latency samples; want 10 and 20", lat.failed, len(lat.us))
	}
	if c.w.attempted() != 30 || c.w.failed() != 10 || c.w.ok() != 20 {
		t.Errorf("attempted %d failed %d ok %d", c.w.attempted(), c.w.failed(), c.w.ok())
	}
	if c.w.firstErr == nil || !strings.Contains(c.w.firstErr.Error(), "status 500") {
		t.Errorf("first failure not kept: %v", c.w.firstErr)
	}
}

func TestValidationCatchesBadBodies(t *testing.T) {
	if _, err := checkPaths([]byte(`[{"path_id":"a","avg_latency_ms":5},{"path_id":"b","avg_latency_ms":3}]`), nil); err == nil {
		t.Error("candidates out of order must fail")
	}
	if _, err := checkPaths([]byte(`[{"path_id":"a","avg_latency_ms":-1},{"path_id":"b","avg_latency_ms":3}]`), nil); err == nil {
		t.Error("-1 is 'never answered' and ranks last")
	}
	if _, err := checkPaths([]byte(`[]`), nil); err == nil {
		t.Error("an empty answer must fail")
	}
	if _, err := checkPaths([]byte(`[{"path_id":"a"},{"path_id":"b"}]`), []string{"a", "c"}); err == nil {
		t.Error("ids that differ from the oracle's must fail")
	}
	dup := `{"server_id":1,"k":2,"paths":[{"path_id":"a"},{"path_id":"a"}]}`
	if err := checkPathset([]byte(dup), op{kind: opPathset, dest: 1, k: 2}, nil); err == nil {
		t.Error("a pathset that repeats a path must fail")
	}
	short := `{"server_id":1,"k":1,"paths":[{"path_id":"a"}]}`
	if err := checkPathset([]byte(short), op{kind: opPathset, dest: 1, k: 2}, nil); err == nil {
		t.Error("a pathset with fewer than k paths must fail")
	}
}

// The smoke: all five workloads, window and traced pass, at 1/50 of the
// measured window on shrunken worlds. Every registered metric name must
// come out, every end-to-end metric non-zero, and a trace file per
// workload.
func TestSmokeAllWorkloads(t *testing.T) {
	var out bytes.Buffer
	cfg := smokeConfig(t, traceBoth, &out)
	line := regexp.MustCompile(`^[a-z-]+ [a-z0-9_.]+ \S+ \S+$`)
	for _, s := range specs {
		r := runWorkload(context.Background(), s, cfg)
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", s.name, r.Correct, r.Failed, r.Attempted, r.Err)
		}
		for _, m := range endToEnd {
			if v := r.EndToEnd[m.Name]; v.Value <= 0 || v.Unit != m.Unit || math.IsNaN(v.Value) {
				t.Errorf("%s: end-to-end %s = %+v", s.name, m.Name, v)
			}
		}
		for _, name := range []string{"cluster.shed", "cluster.rate_limited", "window.fail_ratio"} {
			if v := r.Layer[name]; v.Value != 0 {
				t.Errorf("%s: %s = %v, want 0", s.name, name, v.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+s.name+".json")); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
		// Both driver lines: exactly the registered names.
		for mode, want := range map[traceMode][]metric{traceOff: endToEnd, traceOn: perLayer} {
			var buf bytes.Buffer
			if err := r.printDriverLine(&buf, mode); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			var obj struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]value
			}
			if err := json.Unmarshal(buf.Bytes(), &obj); err != nil || obj.Correct == nil || obj.Attempted == nil || obj.Failed == nil {
				t.Fatalf("%s: driver line %q: %v", s.name, buf.String(), err)
			}
			if len(obj.Metrics) != len(want) {
				t.Errorf("%s mode %d: %d metrics, want %d", s.name, mode, len(obj.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := obj.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s mode %d: metric %s = %+v, %v", s.name, mode, m.Name, v, ok)
				}
			}
		}
		out.Reset()
		r.print(&out)
		for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if !strings.Contains(l, " # ") && !line.MatchString(l) {
				t.Errorf("%s: line %q is not `workload metric value unit`", s.name, l)
			}
		}
	}
}

// A deliberately wrong expected status fails the operations, the run and
// the process; no result line is printed.
func TestWrongExpectationFailsTheProcess(t *testing.T) {
	var out, errOut bytes.Buffer
	cfg := smokeConfig(t, traceOff, &out)
	cfg.tamper = func(exp *expectations) {
		for _, pool := range exp.intents {
			for i := range pool {
				pool[i].status = http.StatusTeapot
			}
		}
	}
	s, _ := specByName("intent-mix")
	if code := execute(context.Background(), cfg, []spec{s}, 0, "", &errOut); code == 0 {
		t.Fatalf("exit code 0 with every intent expecting 418\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "operations failed") {
		t.Errorf("stderr does not say why: %q", errOut.String())
	}
	if strings.Contains(out.String(), `{"correct"`) {
		t.Errorf("a failed run printed a result line:\n%s", out.String())
	}
	// The same run untampered passes and ends with the result object.
	out.Reset()
	cfg.tamper = nil
	if code := execute(context.Background(), cfg, []spec{s}, 0, "", &errOut); code != 0 {
		t.Fatalf("untampered run failed: %s", errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
		t.Errorf("last line is not the result object: %q", last)
	}
}

// A wrong oracle answer stops the run at the gate, before any window.
func TestGateRejectsATierThatDisagreesWithTheOracle(t *testing.T) {
	e, err := newEnvA(smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A "tier" that always answers destination 1's paths: right for the
	// first destination, wrong for the rest.
	real, err := startTier(e, tierBare)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = real.stop() }()
	srv, served, baseURL, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Set("server", "1")
		r.URL.RawQuery = q.Encode()
		real.router.ServeHTTP(w, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close(); <-served }()
	s, _ := specByName("paths-miss")
	if _, err := gate(context.Background(), e, real, s); err != nil {
		t.Fatalf("the real tier must pass the gate: %v", err)
	}
	lying := &tier{baseURL: baseURL, client: real.client}
	if _, err := gate(context.Background(), e, lying, s); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("gate accepted a tier that answers for the wrong destination: %v", err)
	}
}

// BENCHMARK.json is the contract; the registry in metrics.go is what the
// program prints. They must say the same thing, within the driver's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("size %d run_seconds %d paths %v", len(raw), doc.RunSeconds, doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(doc.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %+v vs spec %q %q", i, w, specs[i].name, specs[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d/%d end-to-end, %d/%d per-layer", len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end_to_end[%d] = %+v, registry %+v", i, m, want)
		}
		seen[m.Name] = true
	}
	for i, m := range doc.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || !name.MatchString(m.Name) ||
			!unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer[%d] = %+v, registry %+v", i, m, want)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is required")
	}
}
