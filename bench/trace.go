package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/segment"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/upin"
)

// span is one timed call into a layer's public entry point. Spans of one
// replayed operation share req; parent is the span of the layer above
// (0 for the root). Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime is a layer's own share of a request: its span minus the span
// of the layer below it for the same request. The two come from separate
// sweeps, so where a layer adds almost nothing the difference is noise
// around zero and can read negative; it is reported as measured.
func selfTime(parent, child span) time.Duration { return parent.dur() - child.dur() }

// trace holds every span in memory until the benchmark ends.
type trace struct {
	t0    time.Time
	spans []span
}

func newTrace() *trace { return &trace{t0: time.Now()} }

// time runs f as one span.
func (tr *trace) time(parent, req int, name string, f func()) span {
	s := span{ID: len(tr.spans) + 1, Parent: parent, Req: req, Name: name}
	s.Start = time.Since(tr.t0).Nanoseconds()
	f()
	s.End = time.Since(tr.t0).Nanoseconds()
	tr.spans = append(tr.spans, s)
	return s
}

// write stores the spans as bench/out/trace-<workload>.json.
func (tr *trace) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// layers accumulates the traced pass's samples (microseconds).
type layers struct {
	httpAll, httpSelf                    []float64
	clusterHit, clusterSelfMiss          []float64
	pathsSelf, pathsetSelf               []float64
	sel, selSet                          []float64
	intent, intentSelf                   []float64
	decide, traceSt, record, verify, rec []float64
	fold, rebuild                        []float64 // first Select after a forward / backfill cell
	insertCell                           []float64
	built, returned                      int // candidates Select built / the client received
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// standalone is a upin.Server over an engine built like one shard's, so
// the layer below the router can be called with the router out of the
// way.
type standalone struct {
	engine *selection.Engine
	srv    *upin.Server
	ctrl   *upin.Controller
}

func newStandalones(e *env, t *tier) []*standalone {
	out := make([]*standalone, t.router.Shards())
	for i := range out {
		eng := selection.New(e.db, e.topo, selection.WithServerOwner(func(id int) bool {
			return t.router.ShardFor(id) == i
		}))
		out[i] = &standalone{
			engine: eng,
			srv:    upin.NewServer(e.db, e.daemon, e.net, eng, e.explorer),
			ctrl:   upin.NewController(e.daemon, eng, e.explorer),
		}
	}
	return out
}

func newRequest(method, target string, body []byte) *http.Request {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	req.Header.Set("X-Client-ID", "trace")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// rebuildProbes is how many extra backfill cells the traced pass times.
const rebuildProbes = 5

// The traced pass calls four layers, outermost first.
const (
	layerHTTP    = iota // the HTTP round trip
	layerCluster        // cluster.Router.ServeHTTP on a recorder
	layerUpin           // a stand-alone upin.Server over an engine built like the shard's
	layerEngine         // selection.Engine, or the five intent stages
	layerCount
)

// tracedReq is what the sweeps learned about one replayed operation.
type tracedReq struct {
	spans  [layerCount]span
	status int     // the tier's answer over HTTP
	hit    bool    // the router served it from its response cache
	stages float64 // an intent's five stages, summed, in microseconds
}

// tracedPass replays the schedule's prefix single-threaded, one sweep per
// layer: every operation over HTTP, then every operation into
// Router.ServeHTTP on a recorder, then into a stand-alone upin.Server,
// then into the engine (or, for intents, the five pipeline stages) — the
// same inputs in the same order each time. One sweep per layer, not one
// operation through all four, so every layer meets the same processor-
// cache state: replayed back to back, the first call pays the misses for
// all the rest. A write cell is applied in every sweep (so caches and
// snapshots are invalidated alike) and timed in the last. The first
// sweep stops after n operations or at the deadline; the others replay
// exactly what it did.
func tracedPass(ctx context.Context, tr *trace, e *env, t *tier, exp *expectations,
	cells *cellWriter, sched [][]op, n int, deadline time.Time) (*layers, error) {
	ls := &layers{}
	alone := newStandalones(e, t)
	servers, err := measure.Servers(e.db)
	if err != nil {
		return nil, err
	}
	ias := map[int]addr.IA{}
	for _, s := range servers {
		ias[s.ID] = s.Address.IA
	}
	tracer := upin.NewTracer(e.net)
	verifier := upin.NewVerifier(e.explorer)
	c := &fleetClient{id: "trace", t: t, exp: exp, logf: func(string, ...any) {}}
	// Build every stand-alone snapshot before timing anything.
	for _, d := range e.dests {
		if _, err := alone[t.router.ShardFor(d)].engine.Select(ctx, d, selection.Request{}); err != nil {
			return nil, err
		}
	}

	reqs := make([]tracedReq, 0, n)
	for layer := 0; layer < layerCount; layer++ {
		for i := 0; i < n; i++ {
			if layer == layerHTTP {
				if !time.Now().Before(deadline) {
					n = i
					break
				}
				reqs = append(reqs, tracedReq{})
			}
			o, r, id := nth(sched, i), &reqs[i], i+1
			sa := alone[t.router.ShardFor(o.dest)]

			if o.kind == opCell {
				docs, backfill := cells.next(o.dest)
				if layer != layerEngine {
					if err := cells.stats.InsertMany(docs); err != nil {
						return nil, err
					}
					continue
				}
				var ierr error
				ins := tr.time(0, id, "docdb.insert_cell", func() { ierr = cells.stats.InsertMany(docs) })
				if ierr != nil {
					return nil, ierr
				}
				ls.insertCell = append(ls.insertCell, us(ins.dur()))
				name, into := "selection.fold", &ls.fold
				if backfill {
					name, into = "selection.rebuild", &ls.rebuild
				}
				var serr error
				first := tr.time(ins.ID, id, name, func() { _, serr = sa.engine.Select(ctx, o.dest, selection.Request{}) })
				if serr != nil {
					return nil, serr
				}
				*into = append(*into, us(first.dur()))
				continue
			}

			method, target, body := http.MethodGet, o.target(), []byte(nil)
			if o.kind == opIntent {
				method, target, body = http.MethodPost, "/api/intent", exp.intents[o.dest][o.intent].body
			}
			switch layer {
			case layerHTTP:
				var derr error
				r.spans[layer] = tr.time(0, id, "http", func() { r.status, _, _, derr = c.do(ctx, method, target, body) })
				if derr != nil {
					return nil, derr
				}
				if r.status != http.StatusOK && r.status != http.StatusConflict {
					return nil, fmt.Errorf("traced %s %s: status %d", method, target, r.status)
				}
			case layerCluster:
				rec, hreq := httptest.NewRecorder(), newRequest(method, target, body)
				r.spans[layer] = tr.time(r.spans[layerHTTP].ID, id, "cluster", func() { t.router.ServeHTTP(rec, hreq) })
				r.hit = rec.Header().Get("X-Cache") == "hit"
				if rec.Code != r.status {
					return nil, fmt.Errorf("traced %s %s: router answered %d, over HTTP %d", method, target, rec.Code, r.status)
				}
			case layerUpin:
				rec, hreq := httptest.NewRecorder(), newRequest(method, target, body)
				r.spans[layer] = tr.time(r.spans[layerCluster].ID, id, "upin", func() { sa.srv.ServeHTTP(rec, hreq) })
				if rec.Code != r.status {
					return nil, fmt.Errorf("traced %s %s: stand-alone server answered %d, tier %d", method, target, rec.Code, r.status)
				}
			case layerEngine:
				up := r.spans[layerUpin]
				var serr error
				switch o.kind {
				case opPaths:
					var cands []selection.Candidate
					r.spans[layer] = tr.time(up.ID, id, "selection.select", func() {
						cands, serr = sa.engine.Select(ctx, o.dest, selection.Request{})
					})
					ls.built += len(cands)
					ls.returned += min(topK, len(cands))
				case opPathset:
					r.spans[layer] = tr.time(up.ID, id, "selection.selectset", func() {
						_, serr = sa.engine.SelectSet(ctx, o.dest, selection.SetRequest{K: o.k})
					})
				case opIntent:
					ic := exp.intents[o.dest][o.intent]
					if ic.status != http.StatusOK {
						continue // a refused intent runs no stage past Decide
					}
					r.stages, serr = intentStages(ctx, tr, ls, e, sa, tracer, verifier, up.ID, id, ias[o.dest], ic)
				}
				if serr != nil {
					return nil, serr
				}
			}
		}
	}

	// The sweep's few cells seldom include a backfill: add some, so the
	// rebuild path is timed on every traced run of a write workload.
	for i := 0; cells != nil && i < rebuildProbes; i++ {
		d := e.dests[i%len(e.dests)]
		sa := alone[t.router.ShardFor(d)]
		if err := cells.stats.InsertMany(cells.build(d, true)); err != nil {
			return nil, err
		}
		var serr error
		first := tr.time(0, 0, "selection.rebuild", func() { _, serr = sa.engine.Select(ctx, d, selection.Request{}) })
		if serr != nil {
			return nil, serr
		}
		ls.rebuild = append(ls.rebuild, us(first.dur()))
	}

	// Fold the sweeps into per-layer samples; a layer's self time is its
	// span minus the next layer's span for the same request.
	for i, r := range reqs {
		o := nth(sched, i)
		if o.kind == opCell {
			continue
		}
		h, cl, up, en := r.spans[layerHTTP], r.spans[layerCluster], r.spans[layerUpin], r.spans[layerEngine]
		ls.httpAll = append(ls.httpAll, us(h.dur()))
		ls.httpSelf = append(ls.httpSelf, us(selfTime(h, cl)))
		if r.hit {
			ls.clusterHit = append(ls.clusterHit, us(cl.dur()))
		} else {
			ls.clusterSelfMiss = append(ls.clusterSelfMiss, us(selfTime(cl, up)))
		}
		switch o.kind {
		case opPaths:
			ls.sel = append(ls.sel, us(en.dur()))
			ls.pathsSelf = append(ls.pathsSelf, us(selfTime(up, en)))
		case opPathset:
			ls.selSet = append(ls.selSet, us(en.dur()))
			ls.pathsetSelf = append(ls.pathsetSelf, us(selfTime(up, en)))
		case opIntent:
			if r.status == http.StatusOK {
				ls.intent = append(ls.intent, us(up.dur()))
				ls.intentSelf = append(ls.intentSelf, us(up.dur())-r.stages)
			}
		}
	}
	return ls, nil
}

// intentStages times the five stages upin.Server.handleIntent runs, each
// through its public entry point, and returns their sum in microseconds.
func intentStages(ctx context.Context, tr *trace, ls *layers, e *env, sa *standalone,
	tracer *upin.Tracer, verifier *upin.Verifier, parent, id int, dst addr.IA, ic intentCase) (float64, error) {
	intent := intentOf(ic.req)
	var (
		dec *upin.Decision
		tc  *upin.Trace
		err error
		sum float64
	)
	stage := func(name string, into *[]float64, f func()) {
		d := us(tr.time(parent, id, name, f).dur())
		*into = append(*into, d)
		sum += d
	}
	stage("upin.decide", &ls.decide, func() { dec, err = sa.ctrl.Decide(ctx, dst, intent) })
	if err != nil {
		return 0, err
	}
	stage("upin.trace", &ls.traceSt, func() { tc, err = tracer.Trace(dec, 2) })
	if err != nil {
		return 0, err
	}
	stage("upin.record", &ls.record, func() { _, err = tracer.Record(e.db, tc, dec.Candidate.PathID) })
	if err != nil {
		return 0, err
	}
	stage("upin.verify", &ls.verify, func() { verifier.Verify(intent, tc) })
	stage("upin.recommend", &ls.rec, func() {
		_, err = upin.Recommend(ctx, sa.engine, intent, profileWeights(ic.req.Profile), 3)
	})
	return sum, err
}

// httpFloor times the same client against a canned-body handler: what a
// loopback round trip costs before the tier does anything.
func httpFloor(ctx context.Context, tr *trace, t *tier, n int) (float64, error) {
	body := bytes.Repeat([]byte("x"), 1024)
	srv, served, baseURL, err := listen(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // client went away; nothing to do
	}))
	if err != nil {
		return 0, err
	}
	floor := &tier{baseURL: baseURL, client: t.client}
	c := &fleetClient{id: "floor", t: floor}
	var samples []float64
	for i := 0; i < n; i++ {
		var derr error
		s := tr.time(0, 0, "http.floor", func() { _, _, _, derr = c.do(ctx, http.MethodGet, "/", nil) })
		if derr != nil {
			err = derr
			break
		}
		samples = append(samples, us(s.dur()))
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	<-served
	return median(samples), err
}

// selectAllocKB is the heap a single Select allocates, from the
// allocator's own counters around n single-threaded calls.
func selectAllocKB(ctx context.Context, eng *selection.Engine, dest, n int) (float64, error) {
	if _, err := eng.Select(ctx, dest, selection.Request{}); err != nil { // builds the snapshot
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := eng.Select(ctx, dest, selection.Request{}); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024, nil
}

// docdbProbes times the write-path primitives on the workload's own
// database after everything else is done: the trace record's one-document
// upsert and (catalogue A) a 50-document cell insert.
func docdbProbes(tr *trace, e *env, ls *layers, sc scale, catalogueA bool, seed int64) (insertOne float64) {
	col := e.db.Collection(upin.ColTraces)
	var ones []float64
	for i := 0; i < 200; i++ {
		doc := docdb.Document{
			"_id": fmt.Sprintf("probe:%d", i), upin.FTracePathID: "probe", upin.FTraceTime: int64(i),
			upin.FTraceSequence: "1-ff00:0:1 1-ff00:0:2 2-ff00:0:3 2-ff00:0:4",
			upin.FTraceObserved: []any{"1-ff00:0:1", "1-ff00:0:2", "2-ff00:0:3", "2-ff00:0:4"},
			upin.FTraceRTTsMs:   []any{0.4, 3.1, 41.7, 44.2},
		}
		s := tr.time(0, 0, "docdb.insert_one", func() { _, _ = col.UpsertMany([]docdb.Document{doc}) })
		ones = append(ones, us(s.dur()))
	}
	col.Delete(docdb.Eq(upin.FTracePathID, "probe"))
	if len(ls.insertCell) == 0 && catalogueA {
		// A read-only catalogue-A workload: time cells anyway, at the end,
		// so docdb.insert_cell_us_p50 exists wherever the catalogue does.
		cw := newCellWriter(e, sc, seed, 1_900_000_000_000, 1_500_000_000_000)
		for i := 0; i < 40; i++ {
			docs, _ := cw.next(e.dests[i%len(e.dests)])
			s := tr.time(0, 0, "docdb.insert_cell", func() { _ = cw.stats.InsertMany(docs) })
			ls.insertCell = append(ls.insertCell, us(s.dur()))
		}
	}
	return median(ones)
}

// pipelineProbes times the write-side pipeline's entry points on a fresh
// world B: beaconing, combination, daemon lookups, world forks, the two
// CollectPaths (empty / populated database), the measurement cells alone
// and the stale-path Delete CollectPaths issues per destination.
type pipeline struct {
	discoverMs, combineCold, combineCached float64
	showpaths, resolve, fork               float64
	collectCold, collectRepeat, cells      float64
	seqPathsPerSec, deleteUs               float64
}

func pipelineProbes(ctx context.Context, tr *trace, sc scale, seed int64) (*pipeline, error) {
	e, err := newEnvB(sc, seed)
	if err != nil {
		return nil, err
	}
	p := &pipeline{}
	var reg *segment.Registry
	s := tr.time(0, 0, "segment.discover", func() { reg = segment.Discover(e.topo, segment.Options{}) })
	p.discoverMs = us(s.dur()) / 1e3

	servers, err := measure.Servers(e.db)
	if err != nil {
		return nil, err
	}
	ias := map[int]addr.IA{}
	for _, sv := range servers {
		ias[sv.ID] = sv.Address.IA
	}
	local := e.daemon.LocalIA()
	comb := pathmgr.NewCombiner(e.topo, reg)
	var cold, cached, show, fork []float64
	for _, name := range []string{"pathmgr.combine_cold", "pathmgr.combine_cached"} {
		for _, d := range e.dests {
			var cerr error
			s := tr.time(0, 0, name, func() { _, cerr = comb.Paths(local, ias[d]) })
			if cerr != nil {
				return nil, cerr
			}
			if name == "pathmgr.combine_cold" {
				cold = append(cold, us(s.dur()))
			} else {
				cached = append(cached, us(s.dur()))
			}
		}
	}
	p.combineCold, p.combineCached = median(cold), median(cached)
	for i := 0; i < 200; i++ {
		s := tr.time(0, 0, "simnet.fork", func() { e.daemon.Fork(e.net.Fork(int64(i))) })
		fork = append(fork, us(s.dur()))
	}
	p.fork = median(fork)

	c1 := tr.time(0, 0, "measure.collect_cold", func() {
		_, err = measure.CollectPaths(ctx, e.db, e.daemon, campaignOpts(e, 0, "").Collect)
	})
	if err != nil {
		return nil, err
	}
	p.collectCold = c1.dur().Seconds()
	for _, d := range e.dests {
		var serr error
		s := tr.time(0, 0, "sciond.showpaths", func() {
			_, serr = e.daemon.ShowPaths(ias[d], sciond.ShowPathsOpts{MaxPaths: 200, Extended: true})
		})
		if serr != nil {
			return nil, serr
		}
		show = append(show, us(s.dur()))
	}
	p.showpaths = median(show)
	var resolve []float64
	for _, d := range e.dests {
		pds, err := measure.PathsForServer(e.db, d)
		if err != nil {
			return nil, err
		}
		for _, pd := range pds[:min(4, len(pds))] {
			var rerr error
			s := tr.time(0, 0, "sciond.resolve", func() { _, rerr = e.daemon.ResolveSequence(ias[d], pd.Sequence) })
			if rerr != nil {
				return nil, rerr
			}
			resolve = append(resolve, us(s.dur()))
		}
	}
	p.resolve = median(resolve)

	suite := &measure.Suite{DB: e.db, Daemon: e.daemon}
	par := campaignOpts(e, clients(), "cells")
	par.Skip = true
	var rep measure.RunReport
	cs := tr.time(0, 0, "measure.cells", func() { rep, err = suite.Run(ctx, par) })
	if err != nil {
		return nil, err
	}
	p.cells = cs.dur().Seconds()
	seq := campaignOpts(e, 0, "")
	seq.Skip = true
	ss := tr.time(0, 0, "measure.sequential", func() { rep, err = suite.Run(ctx, seq) })
	if err != nil {
		return nil, err
	}
	p.seqPathsPerSec = float64(rep.PathsTested) / ss.dur().Seconds()

	// The per-destination replace CollectPaths performs, on the populated
	// collection: delete one destination's paths, put them back.
	paths := e.db.Collection(measure.ColPaths)
	var del []float64
	for _, d := range e.dests {
		docs := paths.Find(docdb.Query{Filter: docdb.Eq(measure.FServerID, d)})
		s := tr.time(0, 0, "docdb.delete", func() { paths.Delete(docdb.Eq(measure.FServerID, d)) })
		del = append(del, us(s.dur()))
		if err := paths.InsertMany(docs); err != nil {
			return nil, err
		}
	}
	p.deleteUs = median(del)

	c2 := tr.time(0, 0, "measure.collect_repeat", func() {
		_, err = measure.CollectPaths(ctx, e.db, e.daemon, campaignOpts(e, 0, "").Collect)
	})
	if err != nil {
		return nil, err
	}
	p.collectRepeat = c2.dur().Seconds()
	return p, nil
}
