package selection

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// collectedWorld builds the default world and collects its paths WITHOUT
// running any measurements, so tests control the stats history directly
// (timestamps included). It returns the engine, the db, and the ids of
// servers that have at least one collected path.
func collectedWorld(t testing.TB, seed int64) (*Engine, *docdb.DB, []int) {
	t.Helper()
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	d, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		t.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		t.Fatal(err)
	}
	if _, err := measure.CollectPaths(context.Background(), db, d, measure.CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	srvs, err := measure.Servers(db)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, s := range srvs {
		pds, err := measure.PathsForServer(db, s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(pds) > 0 {
			ids = append(ids, s.ID)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no server has collected paths")
	}
	return New(db, topo), db, ids
}

// statsWriter synthesises paths_stats documents in the measurement suite's
// shape, with test-controlled timestamps: in-order (the steady-state
// campaign), at the high-water mark (equal-timestamp batches), and
// out-of-order (a resumed parallel campaign backfilling history).
type statsWriter struct {
	col      *docdb.Collection
	pathIDs  []string
	serverOf map[string]int
	r        *rand.Rand
	seq      int
	nowMs    int64
	live     []string // inserted _ids still present (for update/delete)
}

func newStatsWriter(t testing.TB, db *docdb.DB, seed int64) *statsWriter {
	t.Helper()
	pds, err := measure.AllPaths(db)
	if err != nil {
		t.Fatal(err)
	}
	w := &statsWriter{
		col:      db.Collection(measure.ColStats),
		serverOf: make(map[string]int, len(pds)),
		r:        rand.New(rand.NewSource(seed)),
		nowMs:    1_700_000_000_000,
	}
	for _, pd := range pds {
		w.pathIDs = append(w.pathIDs, pd.ID)
		w.serverOf[pd.ID] = pd.ServerID
	}
	return w
}

func (w *statsWriter) doc(pathID string, ts int64) docdb.Document {
	w.seq++
	d := docdb.Document{
		"_id":              fmt.Sprintf("%s@%d#%d", pathID, ts, w.seq),
		measure.FPathID:    pathID,
		measure.FServerID:  w.serverOf[pathID],
		measure.FTimestamp: ts,
		measure.FLoss:      float64(w.r.Intn(200)) / 10,
	}
	if w.r.Intn(10) > 0 { // sometimes no echo replies: latency absent
		d[measure.FAvgLatency] = 10 + w.r.Float64()*150
		d[measure.FMdev] = w.r.Float64() * 5
	}
	if w.r.Intn(8) > 0 {
		d[measure.FBwUpMTU] = 1e6 + w.r.Float64()*1e8
		d[measure.FBwDownMTU] = 1e6 + w.r.Float64()*1e8
	}
	return d
}

func (w *statsWriter) insert(t testing.TB, d docdb.Document) {
	t.Helper()
	if err := w.col.Insert(d); err != nil {
		t.Fatal(err)
	}
	w.live = append(w.live, d.ID())
}

// insertInOrder appends n documents at monotonically non-decreasing
// timestamps; a zero stride exercises the frontier (several documents
// sharing the high-water mark).
func (w *statsWriter) insertInOrder(t testing.TB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.nowMs += int64(w.r.Intn(3)) // 0 → duplicate high-water timestamp
		pid := w.pathIDs[w.r.Intn(len(w.pathIDs))]
		w.insert(t, w.doc(pid, w.nowMs))
	}
}

// insertOutOfOrder backfills n documents strictly below the current
// maximum timestamp, which must force the next refresh to rebuild.
func (w *statsWriter) insertOutOfOrder(t testing.TB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := w.nowMs - 1 - w.r.Int63n(1000)
		pid := w.pathIDs[w.r.Intn(len(w.pathIDs))]
		w.insert(t, w.doc(pid, ts))
	}
}

func (w *statsWriter) updateRandom(t testing.TB) {
	t.Helper()
	if len(w.live) == 0 {
		return
	}
	id := w.live[w.r.Intn(len(w.live))]
	w.col.Update(docdb.Eq("_id", id), docdb.Document{
		measure.FLoss: float64(w.r.Intn(200)) / 10,
	})
}

func (w *statsWriter) deleteRandom(t testing.TB) {
	t.Helper()
	if len(w.live) == 0 {
		return
	}
	i := w.r.Intn(len(w.live))
	id := w.live[i]
	w.live = append(w.live[:i], w.live[i+1:]...)
	if n := w.col.Delete(docdb.Eq("_id", id)); n != 1 {
		t.Fatalf("deleted %d documents for %s", n, id)
	}
}

// exclusionPool is the set of real identifiers a randomized request can
// exclude, harvested from unconstrained selections.
type exclusionPool struct {
	isds, ases, countries, operators []string
}

func buildPool(t testing.TB, e *Engine, ids []int) exclusionPool {
	t.Helper()
	var p exclusionPool
	seen := map[string]bool{}
	add := func(dst *[]string, kind, v string) {
		if v != "" && !seen[kind+v] {
			seen[kind+v] = true
			*dst = append(*dst, v)
		}
	}
	snap, err := e.snapshotFor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range ids {
		for _, agg := range snap.servers[sid] {
			for _, isd := range agg.id.ISDs {
				add(&p.isds, "i", isd)
			}
			for _, h := range agg.hops {
				add(&p.ases, "a", h.ia)
				add(&p.countries, "c", h.country)
				add(&p.operators, "o", h.operator)
			}
		}
	}
	return p
}

func pick(r *rand.Rand, pool []string) []string {
	if len(pool) == 0 || r.Intn(2) == 0 {
		return nil
	}
	return []string{pool[r.Intn(len(pool))]}
}

func randomRequest(r *rand.Rand, p exclusionPool) Request {
	req := Request{
		Objective:        Objective(r.Intn(4)),
		MinSamples:       r.Intn(3),
		ExcludeISDs:      pick(r, p.isds),
		ExcludeASes:      pick(r, p.ases),
		ExcludeCountries: pick(r, p.countries),
		ExcludeOperators: pick(r, p.operators),
	}
	switch r.Intn(8) {
	case 0:
		req.MaxLatencyMs = 40 + r.Float64()*120
	case 1:
		req.MaxLossPct = r.Float64() * 15
	case 2:
		req.MinBandwidthBps = r.Float64() * 5e7
	case 3:
		req.MaxJitterMs = r.Float64() * 4
	case 4:
		req.MinUpBps = r.Float64() * 5e7
	case 5:
		req.MinDownBps = r.Float64() * 5e7
	}
	return req
}

// TestSnapshotOracleRandomized is the correctness oracle: across 1000
// randomized interleavings of in-order writes, out-of-order backfills,
// updates, deletes, and reads, the snapshot-served Select must be
// deep-equal to the uncached engine recomputed from scratch, and a
// SelectTop at a random k to the first k of it.
func TestSnapshotOracleRandomized(t *testing.T) {
	e, db, ids := collectedWorld(t, 7)
	w := newStatsWriter(t, db, 7)
	w.insertInOrder(t, 10)
	pool := buildPool(t, e, ids)
	r := rand.New(rand.NewSource(77))
	ctx := context.Background()

	shapes := 1000
	if testing.Short() {
		shapes = 100
	}
	for i := 0; i < shapes; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4:
			w.insertInOrder(t, 1+r.Intn(4))
		case 5:
			w.insertOutOfOrder(t, 1+r.Intn(2))
		case 6:
			w.updateRandom(t)
		case 7:
			w.deleteRandom(t)
		default: // read-only round: snapshot must already be converged
		}
		sid := ids[r.Intn(len(ids))]
		req := randomRequest(r, pool)
		got, gerr := e.Select(ctx, sid, req)
		want, werr := e.selectUncached(ctx, sid, req)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("shape %d server %d: cached err %v, uncached err %v", i, sid, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %d server %d req %+v:\ncached   %+v\nuncached %+v",
				i, sid, req, got, want)
		}
		if werr != nil {
			continue
		}
		// The bounded read the front-end sends: a prefix of the oracle's
		// ranking, for a k drawn below, at and beyond the pool size.
		k := 1 + r.Intn(len(want)+3)
		top, err := e.SelectTop(ctx, sid, req, k)
		if err != nil {
			t.Fatalf("shape %d server %d k=%d: %v", i, sid, k, err)
		}
		if !reflect.DeepEqual(top, want[:min(k, len(want))]) {
			t.Fatalf("shape %d server %d req %+v k=%d:\ntop-k    %+v\nuncached %+v",
				i, sid, req, k, top, want)
		}
	}
}

// TestSnapshotIncrementalRefresh pins the refresh strategy: in-order
// writes fold incrementally; out-of-order writes, stats rewrites, and
// paths-catalogue changes force a full rebuild.
func TestSnapshotIncrementalRefresh(t *testing.T) {
	e, db, ids := collectedWorld(t, 3)
	w := newStatsWriter(t, db, 3)
	w.insertInOrder(t, 20)
	ctx := context.Background()
	sid := ids[0]

	check := func(stage string, wantRebuilds, wantFolds int64) {
		t.Helper()
		if _, err := e.Select(ctx, sid, Request{}); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if r, f := e.rebuilds.Load(), e.folds.Load(); r != wantRebuilds || f != wantFolds {
			t.Fatalf("%s: rebuilds/folds = %d/%d, want %d/%d", stage, r, f, wantRebuilds, wantFolds)
		}
		got, err := e.Select(ctx, sid, Request{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want, err := e.selectUncached(ctx, sid, Request{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached diverged from uncached", stage)
		}
	}

	check("cold start", 1, 0)
	check("fresh re-read", 1, 0) // no data moved: no refresh at all

	w.insertInOrder(t, 5)
	check("in-order batch", 1, 1)
	w.insertInOrder(t, 1) // stride may be 0: high-water duplicate
	check("second batch", 1, 2)

	w.insertOutOfOrder(t, 1)
	check("out-of-order backfill", 2, 2)

	w.updateRandom(t)
	check("stats rewrite", 3, 2)

	w.deleteRandom(t)
	check("stats delete", 4, 2)

	// A paths-catalogue change (re-collection) invalidates identity and
	// geo annotations, not just sums: full rebuild.
	db.Collection(measure.ColPaths).Update(docdb.Eq(measure.FServerID, sid),
		docdb.Document{measure.FStatus: "refreshed"})
	check("paths change", 5, 2)
}

// TestSnapshotSingleflightRefresh pins request coalescing: a burst of
// concurrent selects against a stale snapshot performs exactly one
// refresh.
func TestSnapshotSingleflightRefresh(t *testing.T) {
	e, db, ids := collectedWorld(t, 5)
	w := newStatsWriter(t, db, 5)
	w.insertInOrder(t, 50)
	ctx := context.Background()
	sid := ids[0]
	if _, err := e.Select(ctx, sid, Request{}); err != nil { // prime
		t.Fatal(err)
	}
	base := e.rebuilds.Load() + e.folds.Load()

	w.insertInOrder(t, 10) // snapshot is now stale
	const n = 32
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = e.Select(ctx, sid, Request{})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if d := e.rebuilds.Load() + e.folds.Load() - base; d != 1 {
		t.Fatalf("burst of %d stale selects did %d refreshes, want 1", n, d)
	}
}

// TestSnapshotServeWhileWriting runs selects concurrently with a writer
// (run it under -race). Every response must come from a well-formed
// snapshot — scores sorted, samples positive, generation monotonically
// non-decreasing and never ahead of the collection — and once the writer
// stops, the served answer must converge exactly to the uncached engine.
func TestSnapshotServeWhileWriting(t *testing.T) {
	e, db, ids := collectedWorld(t, 11)
	w := newStatsWriter(t, db, 11)
	w.insertInOrder(t, 30)
	ctx := context.Background()
	sid := ids[0]

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for round := 0; round < 150; round++ {
			switch round % 10 {
			case 9:
				w.insertOutOfOrder(t, 1)
			default:
				w.insertInOrder(t, 2)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var lastGen int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				cands, err := e.Select(ctx, sid, Request{})
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				for i := range cands {
					if cands[i].Samples < 1 {
						t.Errorf("candidate %s served with %d samples", cands[i].PathID, cands[i].Samples)
						return
					}
					if i > 0 && cands[i].Score < cands[i-1].Score {
						t.Error("response not sorted by score")
						return
					}
				}
				info, ok := e.SnapshotInfo()
				if !ok {
					t.Error("no snapshot after successful select")
					return
				}
				if info.StatsGeneration < lastGen {
					t.Errorf("snapshot generation went backwards: %d -> %d", lastGen, info.StatsGeneration)
					return
				}
				lastGen = info.StatsGeneration
				if info.StatsGeneration > db.Collection(measure.ColStats).Generation() {
					t.Error("snapshot claims a generation the collection has not reached")
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	// Quiescent convergence: one more select per server must match the
	// uncached engine exactly (the count-check repairs any write the
	// concurrent folds were one round late on).
	for _, id := range ids {
		got, err := e.Select(ctx, id, Request{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.selectUncached(ctx, id, Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("server %d: post-write snapshot diverged from uncached engine", id)
		}
	}
}
