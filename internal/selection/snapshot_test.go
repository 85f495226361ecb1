package selection

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	e, db, ids, _ := collectedWorldDaemon(t, seed)
	return e, db, ids
}

// collectedWorldDaemon also hands back the daemon, for tests that collect
// the paths again.
func collectedWorldDaemon(t testing.TB, seed int64) (*Engine, *docdb.DB, []int, *sciond.Daemon) {
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
	return New(db, topo), db, ids, d
}

// statsWriter synthesises paths_stats documents in the measurement suite's
// shape, with test-controlled timestamps: in-order (the steady-state
// campaign), equal (several documents per millisecond), out-of-order (a
// resumed parallel campaign backfilling history) and absent.
type statsWriter struct {
	col      *docdb.Collection
	pathIDs  []string
	serverOf map[string]int
	r        *rand.Rand
	seq      int
	nowMs    int64
	live     []string // inserted _ids still present, in storage order
	// noTimestamps makes doc drop timestamp_ms from some documents.
	noTimestamps bool
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
	if w.noTimestamps && w.r.Intn(6) == 0 {
		delete(d, measure.FTimestamp) // refresh is by arrival: no field it needs
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
// timestamps; a zero stride puts several documents on one millisecond.
func (w *statsWriter) insertInOrder(t testing.TB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.nowMs += int64(w.r.Intn(3)) // 0 → duplicate timestamp
		pid := w.pathIDs[w.r.Intn(len(w.pathIDs))]
		w.insert(t, w.doc(pid, w.nowMs))
	}
}

// insertOutOfOrder backfills n documents strictly below the current
// maximum timestamp: to the arrival cursor, an append like any other.
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

// upsertReplace rewrites one stored document in place (same _id, same
// storage position, new values) and appends one new document in the same
// batch — what a resumed campaign cell's idempotent write does.
func (w *statsWriter) upsertReplace(t testing.TB) {
	t.Helper()
	if len(w.live) == 0 {
		return
	}
	id := w.live[w.r.Intn(len(w.live))]
	again := w.doc(w.col.Get(id)[measure.FPathID].(string), w.nowMs)
	again["_id"] = id
	fresh := w.doc(w.pathIDs[w.r.Intn(len(w.pathIDs))], w.nowMs)
	if n, err := w.col.UpsertMany([]docdb.Document{again, fresh}); err != nil || n != 1 {
		t.Fatalf("upsert replaced %d documents, err %v", n, err)
	}
	w.live = append(w.live, fresh.ID())
}

// deleteOldest removes the first 60% of the stored documents in one Delete:
// interior tombstones outnumber the survivors, so docdb squeezes the slice
// and every surviving document changes storage position.
func (w *statsWriter) deleteOldest(t testing.TB) {
	t.Helper()
	n := len(w.live) * 6 / 10
	if n == 0 {
		return
	}
	doomed := make([]any, n)
	for i, id := range w.live[:n] {
		doomed[i] = id
	}
	if got := w.col.Delete(docdb.In("_id", doomed...)); got != n {
		t.Fatalf("deleted %d documents, want %d", got, n)
	}
	w.live = append([]string(nil), w.live[n:]...)
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
		for _, agg := range snap.servers[sid].aggs {
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
// documents without a timestamp, updates, upsert replacements, single and
// squeezing deletes, and reads, the snapshot-served Select must be
// deep-equal to the uncached engine recomputed from scratch, a SelectTop at
// a random k to the first k of it, and an owner-filtered engine over the
// same database to both for the destinations it owns.
func TestSnapshotOracleRandomized(t *testing.T) {
	e, db, ids := collectedWorld(t, 7)
	owns := func(id int) bool { return id%2 == 0 }
	owned := New(db, e.topo, WithServerOwner(owns))
	w := newStatsWriter(t, db, 7)
	w.noTimestamps = true
	w.insertInOrder(t, 10)
	pool := buildPool(t, e, ids)
	r := rand.New(rand.NewSource(77))
	ctx := context.Background()
	if _, err := owned.snapshotFor(ctx); err != nil { // both engines start built
		t.Fatal(err)
	}

	shapes := 1000
	if testing.Short() {
		shapes = 100
	}
	for i := 0; i < shapes; i++ {
		switch r.Intn(24) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11:
			w.insertInOrder(t, 1+r.Intn(4))
		case 12, 13, 14:
			w.insertOutOfOrder(t, 1+r.Intn(2))
		case 15, 16:
			w.updateRandom(t)
		case 17, 18:
			w.deleteRandom(t)
		case 19, 20:
			w.upsertReplace(t)
		case 21:
			if i%4 == 0 { // rarely: it takes most of the history with it
				w.deleteOldest(t)
			}
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
		switch part, perr := owned.Select(ctx, sid, req); {
		case !owns(sid):
			if perr == nil || !strings.Contains(perr.Error(), "no collected paths") {
				t.Fatalf("shape %d server %d: owner-filtered engine answered for a foreign destination: %v", i, sid, perr)
			}
		case (perr == nil) != (werr == nil) || !reflect.DeepEqual(part, want):
			t.Fatalf("shape %d server %d req %+v:\nowner-filtered %+v (%v)\nuncached       %+v (%v)",
				i, sid, req, part, perr, want, werr)
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
	if r, f := e.rebuilds.Load(), e.folds.Load(); r < int64(shapes/10) || f < int64(shapes/4) {
		t.Fatalf("step mix exercised only %d rebuilds and %d folds", r, f)
	}
	if r, f := owned.rebuilds.Load(), owned.folds.Load(); r != e.rebuilds.Load() || f != e.folds.Load() {
		t.Fatalf("owner-filtered engine refreshed %d/%d times, the full one %d/%d",
			r, f, e.rebuilds.Load(), e.folds.Load())
	}
}

// TestSnapshotIncrementalRefresh pins the refresh strategy: appended stats
// documents fold, whatever their timestamps; a stats rewrite or removal and
// a paths-catalogue change each force exactly one full rebuild.
func TestSnapshotIncrementalRefresh(t *testing.T) {
	e, db, ids, daemon := collectedWorldDaemon(t, 3)
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
		for _, id := range ids {
			got, gerr := e.Select(ctx, id, Request{})
			want, werr := e.selectUncached(ctx, id, Request{})
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: server %d: cached diverged from uncached (%v / %v)", stage, id, gerr, werr)
			}
		}
		if info, _ := e.SnapshotInfo(); info.GenerationLag != 0 {
			t.Fatalf("%s: generation lag %d right after a select", stage, info.GenerationLag)
		}
	}

	check("cold start", 1, 0)
	check("fresh re-read", 1, 0) // no data moved: no refresh at all

	w.insertInOrder(t, 5)
	if info, _ := e.SnapshotInfo(); info.GenerationLag <= 0 {
		t.Fatalf("generation lag %d with five writes unfolded", info.GenerationLag)
	}
	check("in-order batch", 1, 1)
	w.insertInOrder(t, 1) // stride may be 0: duplicate timestamp
	check("second batch", 1, 2)

	w.insertOutOfOrder(t, 3)
	check("out-of-order backfill", 1, 3) // an append like any other
	w.noTimestamps = true
	w.insertInOrder(t, 12)
	check("documents without timestamp_ms", 1, 4)

	w.updateRandom(t)
	check("stats rewrite", 2, 4)

	w.deleteRandom(t)
	check("stats delete", 3, 4)

	w.upsertReplace(t)
	check("upsert replacement", 4, 4)

	before := e.current.Load().cursor
	w.deleteOldest(t)
	check("squeezing delete", 5, 4)
	if after := e.current.Load().cursor; after >= before/2 {
		t.Fatalf("cursor %d -> %d: the delete was meant to squeeze the collection", before, after)
	}
	w.insertOutOfOrder(t, 2)
	check("fold after the squeeze", 5, 5)

	if n, err := measure.PruneStats(db, time.Duration(w.nowMs-5)*time.Millisecond); err != nil || n == 0 {
		t.Fatalf("PruneStats removed %d documents, err %v", n, err)
	}
	check("prune", 6, 5)

	// A paths-catalogue change invalidates identity and geo annotations, not
	// just sums: full rebuild, for an in-place update and for a re-collection.
	db.Collection(measure.ColPaths).Update(docdb.Eq(measure.FServerID, sid),
		docdb.Document{measure.FStatus: "refreshed"})
	check("paths change", 7, 5)
	if _, err := measure.CollectPaths(ctx, db, daemon, measure.CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	check("paths collected again", 8, 5) // it repaired the update: one destination rewritten
	w.insertInOrder(t, 2)
	check("fold on the new catalogue", 8, 6)

	// Collecting once more, over a world and a catalogue that did not change,
	// writes nothing: no rebuild, no fold, and what the engine serves for
	// every destination keeps its version — a cached response stays valid.
	versions := map[int]int64{}
	for _, id := range ids {
		versions[id], _ = e.Version(ctx, id)
	}
	rep, err := measure.CollectPaths(ctx, db, daemon, measure.CollectOpts{})
	if err != nil || rep.Rewritten != 0 {
		t.Fatalf("collect over an unchanged world rewrote %d destinations, err %v", rep.Rewritten, err)
	}
	check("paths collected again, nothing changed", 8, 6)
	for _, id := range ids {
		if v, ok := e.Version(ctx, id); !ok || v != versions[id] {
			t.Errorf("server %d: version %d -> %d across a no-op collect", id, versions[id], v)
		}
	}
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
	// uncached engine exactly.
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

// TestSnapshotReadYourWrites pins the refresh rule (run it under -race): a
// Select that starts after a write returned reflects that write, even when
// another request's refresh — begun before the write — is in flight; it
// waits for that flight, finds it does not cover the write and refreshes
// again; a cancelled context releases the wait. On an engine that hands a
// losing request the previous snapshot all three legs fail.
func TestSnapshotReadYourWrites(t *testing.T) {
	e, db, ids := collectedWorld(t, 13)
	w := newStatsWriter(t, db, 13)
	w.insertInOrder(t, 40)
	stats := db.Collection(measure.ColStats)
	ctx := context.Background()
	sid := ids[0]
	var sentinel string // a path of sid; the test counts its samples
	for _, pid := range w.pathIDs {
		if w.serverOf[pid] == sid {
			sentinel = pid
			break
		}
	}
	samples := func(ctx context.Context) (int, error) {
		cands, err := e.Select(ctx, sid, Request{})
		for _, c := range cands {
			if c.PathID == sentinel {
				return c.Samples, err
			}
		}
		return 0, err
	}
	write := func() {
		w.nowMs++
		if err := stats.InsertMany([]docdb.Document{w.doc(sentinel, w.nowMs)}); err != nil {
			t.Error(err)
		}
	}
	write()
	have, err := samples(ctx)
	if err != nil || have == 0 {
		t.Fatalf("sentinel %s served with %d samples, err %v", sentinel, have, err)
	}

	// A refresh that began before the write and publishes nothing newer,
	// staged by hand so the interleaving is the same on every run.
	stage := func() *refreshFlight {
		f := &refreshFlight{done: make(chan struct{})}
		e.mu.Lock()
		e.inflight = f
		e.mu.Unlock()
		return f
	}
	land := func(f *refreshFlight) {
		e.mu.Lock()
		e.inflight = nil
		e.mu.Unlock()
		close(f.done)
	}

	f := stage()
	write()
	got := make(chan int, 1)
	go func() {
		n, err := samples(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- n
	}()
	select {
	case n := <-got:
		land(f)
		t.Fatalf("a select begun after the write returned was answered during another request's refresh with %d samples, want %d", n, have+1)
	case <-time.After(20 * time.Millisecond): // waiting, as it must
	}
	_, _, coalesced := e.Counters()
	if coalesced != 1 {
		t.Fatalf("coalesced = %d with one request waiting", coalesced)
	}
	land(f)
	if n := <-got; n != have+1 {
		t.Fatalf("after the stale flight landed: %d samples, want %d", n, have+1)
	}

	f = stage()
	write()
	cctx, cancel := context.WithCancel(ctx)
	failed := make(chan error, 1)
	go func() {
		_, err := samples(cctx)
		failed <- err
	}()
	cancel()
	select {
	case err := <-failed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled context did not release the waiter")
	}
	land(f)

	// Free-running: one writer, four readers, every flight real.
	var written atomic.Int64 // sentinel samples whose InsertMany has returned
	written.Store(int64(have + 2))
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := written.Load()
				n, err := samples(ctx)
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				if int64(n) < floor {
					t.Errorf("select served %d samples; %d were stored before it began", n, floor)
					return
				}
				info, _ := e.SnapshotInfo()
				if info.StatsGeneration < lastGen || info.StatsGeneration > stats.Generation() {
					t.Errorf("snapshot generation %d after %d, collection at %d",
						info.StatsGeneration, lastGen, stats.Generation())
					return
				}
				lastGen = info.StatsGeneration
			}
		}()
	}
	for round := 0; round < 400 && !t.Failed(); round++ {
		write()
		written.Add(1)
		if round%7 == 0 {
			w.insertOutOfOrder(t, 2)
		}
	}
	close(stop)
	readers.Wait()
	// The backfills draw random paths, the sentinel among them: at least.
	if n, err := samples(ctx); err != nil || int64(n) < written.Load() {
		t.Fatalf("quiescent: %d samples, err %v, want >= %d", n, err, written.Load())
	}
	got2, _ := e.Select(ctx, sid, Request{})
	if want, _ := e.selectUncached(ctx, sid, Request{}); !reflect.DeepEqual(got2, want) {
		t.Fatal("quiescent: snapshot diverged from the uncached engine")
	}
	if r := e.rebuilds.Load(); r != 1 {
		t.Fatalf("%d rebuilds: appends, in or out of timestamp order, must fold", r)
	}
}
