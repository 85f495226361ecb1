package selection

// Serving benchmarks (BENCH_serving.json): the cached Select against the
// uncached pre-snapshot engine at growing stats history, a contended
// parallel variant, and the incremental-refresh cost, which must scale
// with the size of the new write batch rather than with history. Record
// with:
//
//	go run ./cmd/benchjson -label after -bench BenchmarkServing \
//	    -pkg ./internal/selection -out BENCH_serving.json

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/topology"
)

// bulkInOrder is insertInOrder for benchmark fixtures: one InsertMany per
// batch instead of one Insert per document.
func (w *statsWriter) bulkInOrder(t testing.TB, n int) {
	t.Helper()
	docs := make([]docdb.Document, 0, n)
	for i := 0; i < n; i++ {
		w.nowMs += int64(w.r.Intn(3))
		pid := w.pathIDs[w.r.Intn(len(w.pathIDs))]
		docs = append(docs, w.doc(pid, w.nowMs))
	}
	if err := w.col.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		w.live = append(w.live, d.ID())
	}
}

func benchWorld(b *testing.B, docs int) (*Engine, *statsWriter, int) {
	b.Helper()
	e, db, ids := collectedWorld(b, 42)
	w := newStatsWriter(b, db, 42)
	w.bulkInOrder(b, docs)
	return e, w, ids[0]
}

var benchSizes = []int{10_000, 100_000}

// syntheticCatalogue inserts nPaths synthetic path documents for one
// destination, with sequences walking ASes of the given topology (so geo
// annotation and hop metadata are real), plus statsPer stats documents per
// path. It returns the destination's server id. This is the 10³–10⁴
// candidate regime a single destination reaches on generated worlds, which
// a measured SCIONLab campaign never produces.
func syntheticCatalogue(tb testing.TB, topo *topology.Topology, db *docdb.DB,
	nPaths, statsPer int, seed int64) int {
	tb.Helper()
	return syntheticCatalogues(tb, topo, db, 1, nPaths, statsPer, seed)[0]
}

// syntheticCatalogues is syntheticCatalogue for the first nDests servers.
func syntheticCatalogues(tb testing.TB, topo *topology.Topology, db *docdb.DB,
	nDests, nPaths, statsPer int, seed int64) []int {
	tb.Helper()
	if err := measure.SeedServers(db, topo); err != nil {
		tb.Fatal(err)
	}
	srvs, err := measure.Servers(db)
	if err != nil || len(srvs) < nDests {
		tb.Fatalf("%d servers, need %d (%v)", len(srvs), nDests, err)
	}
	ases := topo.ASes()
	r := rand.New(rand.NewSource(seed))

	sids := make([]int, nDests)
	pathDocs := make([]docdb.Document, 0, nDests*nPaths)
	statsDocs := make([]docdb.Document, 0, nDests*nPaths*statsPer)
	nowMs := int64(1_700_000_000_000)
	for i := 0; i < nDests*nPaths; i++ {
		sid, dst := srvs[i/nPaths].ID, srvs[i/nPaths].Address.IA
		sids[i/nPaths] = sid
		hops := 3 + r.Intn(4)
		parts := make([]string, 0, hops+1)
		isds := map[string]bool{}
		for h := 0; h < hops; h++ {
			ia := ases[r.Intn(len(ases))].IA
			parts = append(parts, ia.String())
			isds[fmt.Sprintf("%d", ia.ISD)] = true
		}
		parts = append(parts, dst.String())
		isds[fmt.Sprintf("%d", dst.ISD)] = true
		isdList := make([]any, 0, len(isds))
		for isd := range isds {
			isdList = append(isdList, isd)
		}
		id := measure.PathID(sid, i%nPaths)
		pathDocs = append(pathDocs, docdb.Document{
			"_id":              id,
			measure.FServerID:  sid,
			measure.FPathIndex: i % nPaths,
			measure.FHops:      hops + 1,
			measure.FSequence:  strings.Join(parts, " "),
			measure.FISDs:      isdList,
			measure.FMTU:       1472,
		})
		for s := 0; s < statsPer; s++ {
			nowMs += int64(r.Intn(3))
			statsDocs = append(statsDocs, docdb.Document{
				"_id":               fmt.Sprintf("%s@%d#%d", id, nowMs, s),
				measure.FPathID:     id,
				measure.FServerID:   sid,
				measure.FTimestamp:  nowMs,
				measure.FLoss:       float64(r.Intn(200)) / 10,
				measure.FAvgLatency: 10 + r.Float64()*150,
				measure.FMdev:       r.Float64() * 5,
				measure.FBwUpMTU:    1e6 + r.Float64()*1e8,
				measure.FBwDownMTU:  1e6 + r.Float64()*1e8,
			})
		}
	}
	if err := db.Collection(measure.ColPaths).InsertMany(pathDocs); err != nil {
		tb.Fatal(err)
	}
	if err := db.Collection(measure.ColStats).InsertMany(statsDocs); err != nil {
		tb.Fatal(err)
	}
	return sids
}

// BenchmarkServingSelect profiles one Select at generated-world candidate
// counts: the ases=5000 case serves a destination with 5000 candidate
// paths over a 5000-AS topology (the ROADMAP's unprofiled regime).
func BenchmarkServingSelect(b *testing.B) {
	for _, ases := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("ases=%d", ases), func(b *testing.B) {
			spec := topology.GenerateSpec{
				Seed: int64(ases), ISDs: 20, CoresPerISD: 2, NonCorePerISD: 48,
				MaxChildren: 8, CoreDegree: 4,
			}
			if ases == 5000 {
				spec = topology.GenerateSpec{
					Seed: 5000, ISDs: 25, CoresPerISD: 4, NonCorePerISD: 196,
					MaxChildren: 12, CoreDegree: 4,
				}
			}
			topo, err := topology.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			db := docdb.MustOpen()
			sid := syntheticCatalogue(b, topo, db, ases, 3, 7)
			e := New(db, topo)
			ctx := context.Background()
			if _, err := e.Select(ctx, sid, Request{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Select(ctx, sid, Request{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// candsEngine serves one destination with cands synthetic candidate paths
// over the 1000-AS generated topology, snapshot already built.
func candsEngine(b *testing.B, cands int) (*Engine, int) {
	b.Helper()
	topo, err := topology.Generate(topology.GenerateSpec{
		Seed: 1000, ISDs: 20, CoresPerISD: 2, NonCorePerISD: 48,
		MaxChildren: 8, CoreDegree: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	db := docdb.MustOpen()
	sid := syntheticCatalogue(b, topo, db, cands, 3, 7)
	e := New(db, topo)
	if _, err := e.Select(context.Background(), sid, Request{}); err != nil {
		b.Fatal(err)
	}
	return e, sid
}

// BenchmarkServingSelectTop is the request the front-end actually sends
// (GET /api/paths?top=K) at the engine: k=5 is the UI's default page, k=1
// is Best behind every intent, k=all the unbounded Select. Bytes per
// operation must track k, not the candidate count.
func BenchmarkServingSelectTop(b *testing.B) {
	for _, cands := range []int{1000, 5000} {
		e, sid := candsEngine(b, cands)
		ctx := context.Background()
		for _, k := range []int{1, 5, 0} {
			name := fmt.Sprintf("cands=%d/k=%d", cands, k)
			if k == 0 {
				name = fmt.Sprintf("cands=%d/k=all", cands)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.SelectTop(ctx, sid, Request{}, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkServingSelectCached(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			e, _, sid := benchWorld(b, n)
			ctx := context.Background()
			if _, err := e.Select(ctx, sid, Request{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Select(ctx, sid, Request{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkServingSelectCachedParallel(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			e, _, sid := benchWorld(b, n)
			ctx := context.Background()
			if _, err := e.Select(ctx, sid, Request{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := e.Select(ctx, sid, Request{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServingSelectUncached is the pre-snapshot engine: every request
// re-folds the destination's full stats history.
func BenchmarkServingSelectUncached(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			e, _, sid := benchWorld(b, n)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.selectUncached(ctx, sid, Request{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServingRefreshIncremental measures write-batch-then-select at a
// fixed batch size against different history sizes: the per-iteration cost
// must track the batch, not the history.
func BenchmarkServingRefreshIncremental(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			e, w, sid := benchWorld(b, n)
			ctx := context.Background()
			if _, err := e.Select(ctx, sid, Request{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.bulkInOrder(b, 100)
				if _, err := e.Select(ctx, sid, Request{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServingFold is the refresh alone, on the catalogue the end-to-end
// benchmark serves (6 destinations × 1000 paths): one 50-document cell for
// one destination is stored past a built snapshot, and every iteration
// refreshes from that snapshot again without publishing. forward stamps the
// cell above the history's newest timestamp, backfill below its oldest (what
// a resumed parallel campaign stores); foreign refreshes an owner-filtered
// engine that serves the other five destinations.
func BenchmarkServingFold(b *testing.B) {
	for _, mode := range []string{"forward", "backfill", "foreign"} {
		b.Run(mode, func(b *testing.B) {
			topo := topology.DefaultWorld()
			db := docdb.MustOpen()
			dests := syntheticCatalogues(b, topo, db, 6, 1000, 3, 7)
			target, served := dests[0], dests[0]
			var opts []Option
			if mode == "foreign" {
				served = dests[1]
				opts = append(opts, WithServerOwner(func(id int) bool { return id != target }))
			}
			e := New(db, topo, opts...)
			if _, err := e.Select(context.Background(), served, Request{}); err != nil {
				b.Fatal(err)
			}
			prev := e.current.Load()

			r := rand.New(rand.NewSource(16))
			cell := make([]docdb.Document, 50)
			for i := range cell {
				ts := int64(1_800_000_000_000 + i)
				if mode == "backfill" {
					ts = int64(1_600_000_000_000 - i)
				}
				id := measure.PathID(target, r.Intn(1000))
				cell[i] = docdb.Document{
					"_id":           fmt.Sprintf("%s@%d#cell", id, ts),
					measure.FPathID: id, measure.FServerID: target, measure.FTimestamp: ts,
					measure.FLoss: 0.5, measure.FAvgLatency: 10 + r.Float64()*150, measure.FMdev: 1.0,
					measure.FBwUpMTU: 5e7, measure.FBwDownMTU: 5e7,
				}
			}
			if err := db.Collection(measure.ColStats).InsertMany(cell); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.rebuildOrFold(prev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
