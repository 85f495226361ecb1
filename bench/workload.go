package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/upin/scionpath/internal/measure"
)

// serving is a set-up serving workload, ready for its window.
type serving struct {
	env   *env
	tier  *tier
	sched [][]op
	exp   *expectations
	cells *cellWriter
}

// setUpServing is everything ISSUE counts as set-up: world, seed (or the
// real campaign on world B), tier, the correctness gate (which also
// builds every snapshot) and the warm-up requests.
func setUpServing(ctx context.Context, s spec, cfg config) (*serving, error) {
	var (
		e   *env
		err error
	)
	if s.worldB {
		if e, err = newEnvB(cfg.sc, cfg.seed); err == nil {
			err = e.measureB(ctx)
		}
	} else {
		e, err = newEnvA(cfg.sc, cfg.seed)
	}
	if err != nil {
		return nil, err
	}
	sv := &serving{env: e}
	if s.cellEvery > 0 {
		sv.cells = prepareSentinels(e, cfg.sc, cfg.seed)
	}
	if sv.tier, err = startTier(e, s.tier); err != nil {
		return nil, err
	}
	if err = sv.prepare(ctx, s, cfg); err != nil {
		_ = sv.tier.stop() // the set-up error is the one worth reporting
		return nil, err
	}
	return sv, nil
}

func (sv *serving) prepare(ctx context.Context, s spec, cfg config) (err error) {
	if sv.sched, err = buildSchedule(s, cfg.seed, clients(), sv.env.dests); err != nil {
		return err
	}
	if sv.exp, err = gate(ctx, sv.env, sv.tier, s); err != nil {
		return err
	}
	if s.cellEvery > 0 {
		// Writes move the answers: the window checks shape and sentinel,
		// the gate above has checked the ids.
		sv.exp.ids = nil
	}
	if s.intentShare > 0 {
		if sv.exp.intents, err = buildIntents(ctx, sv.env, cfg.seed); err != nil {
			return err
		}
	}
	if err = warm(ctx, sv.tier, sv.exp, sv.sched, cfg.sc.warmup); err != nil {
		return err
	}
	if cfg.tamper != nil {
		cfg.tamper(sv.exp)
	}
	return nil
}

// Set-up is repeated and its median reported, so that one slow start does
// not read as a regression; cheap set-ups are repeated more.
const (
	setupMinReps  = 3
	setupMaxReps  = 15
	setupMinTotal = 2 * time.Second
)

// repeatSetUp runs build (and tear-down of all but the last) until the
// median is worth reporting, and returns that median in seconds.
func repeatSetUp[T any](build func() (T, error), drop func(T) error, once bool) (T, float64, error) {
	var (
		last  T
		times []float64
		total time.Duration
	)
	for rep := 0; ; rep++ {
		t0 := time.Now()
		v, err := build()
		d := time.Since(t0)
		if err != nil {
			return last, 0, err
		}
		times = append(times, d.Seconds())
		total += d
		last = v
		if once || rep+1 >= setupMaxReps || (rep+1 >= setupMinReps && total >= setupMinTotal) {
			return last, median(times), nil
		}
		if err := drop(v); err != nil {
			return last, 0, err
		}
	}
}

// procSnap reads the whole-process counters around a window.
type procSnap struct {
	mem runtime.MemStats
	ru  syscall.Rusage
}

func readProc() *procSnap {
	p := &procSnap{}
	runtime.ReadMemStats(&p.mem)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru) // RUSAGE_SELF cannot fail
	return p
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// layerSet collects per-layer values under their registered units.
type layerSet map[string]value

func (l layerSet) set(name string, v float64) { l[name] = value{v, unitOf(perLayer, name)} }

func (l layerSet) proc(before, after *procSnap, ops int) {
	if ops > 0 {
		l.set("proc.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/float64(ops))
	}
	l.set("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	l.set("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	l.set("proc.cpu_s", tvSeconds(after.ru.Utime)+tvSeconds(after.ru.Stime)-tvSeconds(before.ru.Utime)-tvSeconds(before.ru.Stime))
	l.set("proc.rss_mb_end", float64(after.ru.Maxrss)/1024) // Linux reports KiB; peak so far
}

func named(r *result, name string, v float64) {
	if r.Named == nil {
		r.Named = map[string]value{}
	}
	r.Named[name] = value{v, unitOf(namedMetrics, name)}
}

func e2e(r *result, name string, v float64) {
	if r.EndToEnd == nil {
		r.EndToEnd = map[string]value{}
	}
	r.EndToEnd[name] = value{v, unitOf(endToEnd, name)}
}

// classTails are the tail percentiles printed for each latency class
// under the issue's names (opCell: freshness).
var classTails = map[opKind]struct {
	base  string
	tails []float64
}{
	opPaths:   {"paths", []float64{0.99}},
	opPathset: {"pathset", []float64{0.95, 0.99}},
	opIntent:  {"intent", []float64{0.99}},
	opCell:    {"fresh", []float64{0.90, 0.95}},
}

// report prints a latency class as p50 and tails, in milliseconds, under
// the issue's names, and fills the end-to-end slot that names the class.
// Each number is a median over the window's time slices
// (latencies.overSlices).
func report(r *result, s spec, kind opKind, l *latencies, window time.Duration) {
	if len(l.us) == 0 {
		return
	}
	ct := classTails[kind]
	sorted := l.sorted()
	q := func(p float64) float64 { return sorted[min(len(sorted)-1, int(p*float64(len(sorted))))] / 1e3 }
	how := ""
	read := func(p float64) float64 {
		v, k := l.overSlices(window, p)
		if k == 0 {
			var got float64
			v, got = tail(sorted, p)
			how += fmt.Sprintf(" p%.0f unsupported, reads p%.0f;", p*100, got*100)
		} else {
			how += fmt.Sprintf(" p%.0f over %d slices;", p*100, k)
		}
		return v / 1e3
	}
	defer func() {
		r.note("%s: %d samples;%s pooled ms: p50 %.4g p75 %.4g p90 %.4g p95 %.4g p99 %.4g max %.4g",
			ct.base, len(sorted), how, q(0.50), q(0.75), q(0.90), q(0.95), q(0.99), sorted[len(sorted)-1]/1e3)
	}()
	p50 := read(0.50)
	named(r, ct.base+"_p50_ms", p50)
	for _, p := range ct.tails {
		v := read(p)
		named(r, fmt.Sprintf("%s_p%.0f_ms", ct.base, p*100), v)
		for name, sl := range map[string]slot{"primary": s.primary, "secondary": s.secondary} {
			if sl.class == kind && sl.tail == p {
				e2e(r, name+"_p50_ms", p50)
				e2e(r, name+"_tail_ms", v)
			}
		}
	}
}

// runWorkload runs one workload in one mode and never panics on a
// validation failure: the result carries Correct=false and the reason.
func runWorkload(ctx context.Context, s spec, cfg config) *result {
	r := &result{Workload: s.name, Seed: cfg.seed, Seconds: cfg.seconds, Correct: true}
	var err error
	if s.campaign {
		err = runCampaign(ctx, s, cfg, r)
	} else {
		err = runServing(ctx, s, cfg, r)
	}
	if err != nil {
		r.fail(err)
	}
	if r.Failed > 0 {
		r.fail(fmt.Errorf("%d of %d operations failed", r.Failed, r.Attempted))
	}
	if r.Layer != nil {
		for name, v := range r.Named {
			r.Layer["window."+name] = v
		}
	}
	return r
}

func runServing(ctx context.Context, s spec, cfg config, r *result) error {
	sv, setup, err := repeatSetUp(
		func() (*serving, error) { return setUpServing(ctx, s, cfg) },
		func(sv *serving) error { return sv.tier.stop() },
		cfg.mode == traceOn)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if err := sv.tier.stop(); err != nil {
			r.fail(fmt.Errorf("stopping the tier: %w", err))
		}
	}()
	e2e(r, "setup_s", setup)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.mode == traceOn {
		dur /= 2 // the window only supplies the counts; the rest is the traced pass's
	}
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.out, s.name+" # "+format+"\n", args...) }
	// Start every window from a collected heap: what the repeated set-ups
	// left behind must not decide when the window's first collections run.
	runtime.GC()
	statsBefore := sv.tier.router.Stats()
	procBefore := readProc()
	w := runFleet(ctx, sv.tier, sv.exp, sv.cells, sv.sched, dur, logf)
	procAfter := readProc()
	stats := sv.tier.router.Stats()

	r.Attempted, r.Failed = w.attempted(), w.failed()
	if w.firstErr != nil {
		r.note("first failure: %v", w.firstErr)
	}
	rps := ratePerSlice(dur, &w.lat[opPaths], &w.lat[opPathset], &w.lat[opIntent], &w.fresh)
	e2e(r, "ok_per_s", rps)
	named(r, "ok_rps", rps)
	named(r, "fail_ratio", float64(r.Failed)/float64(max(1, r.Attempted)))
	r.note("window %.2fs, %d ok (%.0f/s over the whole window), %d probes; ok_per_s is the median of %d slices",
		w.elapsed.Seconds(), w.ok(), float64(w.ok())/w.elapsed.Seconds(), w.probes, maxSlices)
	report(r, s, opCell, &w.fresh, dur)
	for kind := range w.lat {
		report(r, s, opKind(kind), &w.lat[kind], dur)
	}
	if s.cellEvery > 0 {
		r.note("%d cells, %d backfills, %d stale, %d of them still stale at the %v deadline", w.cells, w.backfills, w.stale, w.expired, staleDeadline)
	}
	if d := stats.ShedTotal - statsBefore.ShedTotal; d != 0 {
		r.fail(fmt.Errorf("run void: the admission gate shed %d requests", d))
	}
	if d := stats.RateLimitedTotal - statsBefore.RateLimitedTotal; d != 0 {
		r.fail(fmt.Errorf("run void: the limiter refused %d requests", d))
	}
	if cfg.mode == traceOff {
		return nil
	}

	// Counts, from the window.
	l := layerSet{}
	r.Layer = l
	l.proc(procBefore, procAfter, w.ok()+w.probes)
	hits := float64(stats.CacheHits - statsBefore.CacheHits)
	if total := hits + float64(stats.CacheMisses-statsBefore.CacheMisses); total > 0 {
		l.set("cluster.cache_hit_ratio", hits/total)
	}
	l.set("cluster.shed", float64(stats.ShedTotal))
	l.set("cluster.rate_limited", float64(stats.RateLimitedTotal))
	l.set("cluster.stale_cells", float64(w.stale))
	l.set("cluster.new_ms", sv.tier.newTime.Seconds()*1e3)
	var rebuilds, folds, coalesced int64
	for i, sh := range stats.PerShard {
		rebuilds += sh.Rebuilds - statsBefore.PerShard[i].Rebuilds
		folds += sh.Folds - statsBefore.PerShard[i].Folds
		coalesced += sh.Coalesced - statsBefore.PerShard[i].Coalesced
	}
	l.set("selection.rebuilds", float64(rebuilds))
	l.set("selection.folds", float64(folds))
	l.set("selection.coalesced", float64(coalesced))
	l.set("upin.resp_bytes_p50", median(w.respBytes))
	l.set("http.window_us_p50", r.Named["paths_p50_ms"].Value*1e3)
	if sv.env.seedTime > 0 {
		l.set("docdb.bulk_docs_per_s", float64(sv.env.seedDocs)/sv.env.seedTime.Seconds())
	}
	if rep := sv.env.campaignRep; rep.PathsTested > 0 {
		l.set("measure.paths_tested", float64(rep.PathsTested))
		l.set("measure.stats_stored", float64(rep.StatsStored))
		l.set("measure.failures", float64(rep.Failures))
	}

	// Times, from the traced pass: single-threaded, each layer called
	// from outside with the same input.
	tr := newTrace()
	budget := time.Duration(cfg.seconds * 0.35 * float64(time.Second))
	ls, err := tracedPass(ctx, tr, sv.env, sv.tier, sv.exp, sv.cells, sv.sched, cfg.sc.traced, time.Now().Add(budget))
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	r.note("traced pass: %d round trips; HTTP p50 %.1f us traced vs %.1f us in the window",
		len(ls.httpAll), median(ls.httpAll), r.Named["paths_p50_ms"].Value*1e3)
	l.set("http.traced_us_p50", median(ls.httpAll))
	l.set("http.self_us_p50", median(ls.httpSelf))
	l.set("cluster.serve_hit_us_p50", median(ls.clusterHit))
	l.set("cluster.self_miss_us_p50", median(ls.clusterSelfMiss))
	l.set("upin.paths_self_us_p50", median(ls.pathsSelf))
	l.set("upin.pathset_self_us_p50", median(ls.pathsetSelf))
	l.set("upin.intent_us_p50", median(ls.intent))
	l.set("upin.intent_self_us_p50", median(ls.intentSelf))
	l.set("upin.decide_us_p50", median(ls.decide))
	l.set("upin.trace_us_p50", median(ls.traceSt))
	l.set("upin.record_us_p50", median(ls.record))
	l.set("upin.verify_us_p50", median(ls.verify))
	l.set("upin.recommend_us_p50", median(ls.rec))
	l.set("selection.select_us_p50", median(ls.sel))
	if len(ls.sel) > 0 {
		sorted := slices.Clone(ls.sel)
		slices.Sort(sorted)
		v, _ := tail(sorted, 0.99)
		l.set("selection.select_us_p99", v)
	}
	l.set("selection.selectset_us_p50", median(ls.selSet))
	if ls.built > 0 {
		l.set("selection.useful_ratio", float64(ls.returned)/float64(ls.built))
	}
	l.set("selection.fold_us_p50", median(ls.fold))
	l.set("selection.rebuild_ms_p50", median(ls.rebuild)/1e3)

	floor, err := httpFloor(ctx, tr, sv.tier, 1000)
	if err != nil {
		return fmt.Errorf("http floor: %w", err)
	}
	l.set("http.floor_us_p50", floor)
	alloc, err := selectAllocKB(ctx, oracle(sv.env), sv.env.dests[0], 200)
	if err != nil {
		return err
	}
	l.set("selection.select_alloc_kb", alloc)
	l.set("docdb.insert_one_us_p50", docdbProbes(tr, sv.env, ls, cfg.sc, !s.worldB, cfg.seed))
	l.set("docdb.insert_cell_us_p50", median(ls.insertCell))
	l.set("docdb.stats_docs_end", float64(sv.env.db.Collection(measure.ColStats).Count()))

	path, err := tr.write(cfg.outDir, s.name)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	r.note("%d spans in %s", len(tr.spans), path)
	return nil
}

func runCampaign(ctx context.Context, s spec, cfg config, r *result) error {
	e, setup, err := repeatSetUp(
		func() (*env, error) { return newEnvB(cfg.sc, cfg.seed) },
		func(*env) error { return nil },
		cfg.mode == traceOn)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	e2e(r, "setup_s", setup)

	runtime.GC()
	procBefore := readProc()
	cold, repeat, err := campaignWindow(ctx, e)
	procAfter := readProc()
	if err != nil {
		return err
	}
	r.Attempted = cold.rep.PathsTested + repeat.rep.PathsTested
	r.Failed = cold.rep.Failures + repeat.rep.Failures
	e2e(r, "ok_per_s", float64(r.Attempted-r.Failed)/(cold.wall+repeat.wall).Seconds())
	named(r, "campaign_cold_paths_per_s", cold.pathsPerSec())
	named(r, "campaign_repeat_paths_per_s", repeat.pathsPerSec())
	named(r, "fail_ratio", float64(r.Failed)/float64(max(1, r.Attempted)))
	r.note("%d destinations x %d iterations, %d paths tested per campaign; cold %.2fs, repeat %.2fs",
		cold.rep.Destinations, cold.rep.Iterations, cold.rep.PathsTested, cold.wall.Seconds(), repeat.wall.Seconds())
	for _, ph := range []struct {
		p    *phase
		slot string
	}{{repeat, "primary"}, {cold, "secondary"}} {
		sorted := ph.p.stored.sorted()
		p50, _ := percentile(sorted, 0.50)
		tv, _ := tail(sorted, 0.99)
		e2e(r, ph.slot+"_p50_ms", p50/1e3)
		e2e(r, ph.slot+"_tail_ms", tv/1e3)
	}
	if cfg.mode == traceOff {
		return nil
	}

	l := layerSet{}
	r.Layer = l
	l.proc(procBefore, procAfter, r.Attempted)
	l.set("measure.paths_tested", float64(r.Attempted))
	l.set("measure.stats_stored", float64(cold.rep.StatsStored+repeat.rep.StatsStored))
	l.set("measure.failures", float64(r.Failed))
	l.set("docdb.stats_docs_end", float64(e.db.Collection(measure.ColStats).Count()))

	tr := newTrace()
	p, err := pipelineProbes(ctx, tr, cfg.sc, cfg.seed)
	if err != nil {
		return fmt.Errorf("pipeline probes: %w", err)
	}
	l.set("segment.discover_ms", p.discoverMs)
	l.set("pathmgr.combine_cold_us_p50", p.combineCold)
	l.set("pathmgr.combine_cached_us_p50", p.combineCached)
	l.set("sciond.showpaths_us_p50", p.showpaths)
	l.set("sciond.resolve_us_p50", p.resolve)
	l.set("simnet.fork_us_p50", p.fork)
	l.set("measure.collect_cold_s", p.collectCold)
	l.set("measure.collect_repeat_s", p.collectRepeat)
	l.set("measure.cells_s", p.cells)
	l.set("measure.sequential_paths_per_s", p.seqPathsPerSec)
	l.set("docdb.delete_us_p50", p.deleteUs)
	path, err := tr.write(cfg.outDir, s.name)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	r.note("%d spans in %s", len(tr.spans), path)
	return nil
}
