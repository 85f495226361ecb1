// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (§6), plus micro-benchmarks for the substrates. Run with:
//
//	go test -bench=. -benchmem .
package scionpath

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/auth"
	"github.com/upin/scionpath/internal/bwtest"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/experiments"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/segment"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
)

// --- Figure/table benchmarks -------------------------------------------

// BenchmarkFig4Reachability regenerates Fig 4: server reachability from
// MY_AS (#destinations per minimum hop count, avg path length, %<=6 hops).
func BenchmarkFig4Reachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Fig4(env)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reachable == 0 {
			b.Fatal("no reachable destinations")
		}
	}
}

// BenchmarkFig5LatencyIreland regenerates Fig 5: per-path latency box
// plots to AWS Ireland, 6-hop vs 7-hop groups, three latency layers.
func BenchmarkFig5LatencyIreland(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Fig5(context.Background(), env, experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Boxes) == 0 {
			b.Fatal("no boxes")
		}
	}
}

// BenchmarkFig6ISDGrouping regenerates Fig 6: latency per ISD set grouped
// by hop count, with and without long-distance paths.
func BenchmarkFig6ISDGrouping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Fig6(context.Background(), env, experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.All) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkFig7Bandwidth12 regenerates Fig 7: achieved bandwidth per path
// to the Germany server at a 12 Mbps target (64B vs MTU, up vs down).
func BenchmarkFig7Bandwidth12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Fig7(context.Background(), env, experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if !(res.Mean64Up < res.MeanMTUUp) {
			b.Fatalf("Fig 7 shape violated: 64B up %.1f !< MTU up %.1f", res.Mean64Up/1e6, res.MeanMTUUp/1e6)
		}
	}
}

// BenchmarkFig8Bandwidth150 regenerates Fig 8: the 150 Mbps target where
// the 64B/MTU trend reverses.
func BenchmarkFig8Bandwidth150(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Fig8(context.Background(), env, experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if !(res.Mean64Up > res.MeanMTUUp) {
			b.Fatalf("Fig 8 shape violated: 64B up %.1f !> MTU up %.1f", res.Mean64Up/1e6, res.MeanMTUUp/1e6)
		}
	}
}

// BenchmarkFig9PacketLoss regenerates Fig 9: the per-path loss dot plot to
// AWS N. Virginia with the congestion episode on a shared first-half node.
func BenchmarkFig9PacketLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Fig9(context.Background(), env, experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.FullLossPaths) == 0 {
			b.Fatal("no full-loss paths")
		}
	}
}

// BenchmarkTableReachability regenerates the §6 in-text numbers: 21
// reachable destinations, average path length, fraction within 6 hops.
func BenchmarkTableReachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		tab, err := experiments.TableReachability(env)
		if err != nil {
			b.Fatal(err)
		}
		if tab.ReachableServers != 21 {
			b.Fatalf("reachable %d", tab.ReachableServers)
		}
	}
}

// BenchmarkTableFilter regenerates the §5.2 hop-slack retention counts.
func BenchmarkTableFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		if _, err := experiments.TableFilter(context.Background(), env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ------------------------------------------------
// These quantify the cost and necessity of the model mechanisms DESIGN.md
// §5 calls out: each run re-validates that the mechanism produces (and its
// removal destroys) the corresponding figure shape.

// BenchmarkAblationCollapse pairs Fig 8 with and without the overload
// goodput collapse; the reversal must hold only with it.
func BenchmarkAblationCollapse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationReversal(context.Background(), int64(i), experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ReversalHolds() || !res.ReversalGoneWithoutCollapse() {
			b.Fatalf("ablation shape violated: %+v", res)
		}
	}
}

// BenchmarkAblationJitter pairs Fig 5's box spreads with and without
// per-AS jitter.
func BenchmarkAblationJitter(b *testing.B) {
	scale := experiments.Fast
	scale.Iterations = 6
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationJitter(context.Background(), int64(i), scale)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ContrastHolds() {
			b.Fatalf("jitter contrast missing: %+v", res)
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------

// BenchmarkScaling sweeps generated world sizes to show how beaconing and
// path combination scale beyond the 35-AS SCIONLab topology.
func BenchmarkScaling(b *testing.B) {
	for _, isds := range []int{4, 8, 16} {
		spec := topology.GenerateSpec{Seed: 1, ISDs: isds, MaxNonCorePerISD: 6, ExtraCoreLinks: isds / 2}
		topo, err := topology.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		servers := topo.Servers()
		if len(servers) == 0 {
			b.Fatal("no servers generated")
		}
		b.Run(fmt.Sprintf("beaconing/isds=%d/ases=%d", isds, len(topo.ASes())), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				segment.Discover(topo, segment.Options{})
			}
		})
		b.Run(fmt.Sprintf("paths/isds=%d/ases=%d", isds, len(topo.ASes())), func(b *testing.B) {
			reg := segment.Discover(topo, segment.Options{})
			c := pathmgr.NewCombiner(topo, reg)
			src := servers[0].IA
			dst := servers[len(servers)-1].IA
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Paths(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBeaconing(b *testing.B) {
	topo := topology.DefaultWorld()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := segment.Discover(topo, segment.Options{})
		if len(reg.DownByLeaf) == 0 {
			b.Fatal("no segments")
		}
	}
}

func BenchmarkPathCombination(b *testing.B) {
	topo := topology.DefaultWorld()
	reg := segment.Discover(topo, segment.Options{})
	c := pathmgr.NewCombiner(topo, reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, err := c.Paths(topology.MyAS, topology.AWSIreland)
		if err != nil || len(paths) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowPaths40(b *testing.B) {
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 1})
	d, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ShowPaths(topology.AWSIreland, sciond.ShowPathsOpts{MaxPaths: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPing30(b *testing.B) {
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 1})
	d, _ := sciond.New(topo, net, topology.MyAS)
	paths, _ := d.PathsTo(topology.AWSIreland)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scmp.Ping(net, paths[0], scmp.PingOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandwidthTest(b *testing.B) {
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 1})
	d, _ := sciond.New(topo, net, topology.MyAS)
	paths, _ := d.PathsTo(topology.MagdeburgAP)
	params, _ := bwtest.ParseParams("3,MTU,?,12Mbps", paths[0].MTU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bwtest.Run(net, paths[0], params, bwtest.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocDBInsertBatch(b *testing.B) {
	db := docdb.MustOpen()
	col := db.Collection("bench")
	batch := make([]docdb.Document, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = docdb.Document{
				"_id":  fmt.Sprintf("%d_%d", i, j),
				"hops": j % 8, "loss": float64(j % 100),
			}
		}
		if err := col.InsertMany(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocDBQuery(b *testing.B) {
	db := docdb.MustOpen()
	col := db.Collection("bench")
	for i := 0; i < 5000; i++ {
		col.Insert(docdb.Document{"_id": fmt.Sprintf("d%d", i), "hops": i % 8, "loss": float64(i % 100)})
	}
	f := docdb.And(docdb.Eq("hops", 6), docdb.Lt("loss", 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := col.Find(docdb.Query{Filter: f, SortBy: "loss"})
		if len(docs) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkEventEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		e.Run()
	}
}

func BenchmarkSelection(b *testing.B) {
	env := mustEnv(b, 1)
	id, err := env.ServerID(topology.AWSIreland)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := env.Suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, ServerIDs: []int{id},
		PingCount: 5, PingInterval: 5 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		b.Fatal(err)
	}
	engine := selection.New(env.DB, env.Topo)
	req := selection.Request{
		Objective:        selection.LowestLatency,
		ExcludeCountries: []string{"United States"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Select(context.Background(), id, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		if _, err := measure.CollectPaths(context.Background(), env.DB, env.Daemon, measure.CollectOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// collectRepeatWorld is the populated database both repeat-collect
// benchmarks run on: the 1000-AS generated world of bench/'s world B (960
// destinations, ~30k stored paths) after one cold collect with bench/'s
// campaign options. Building it is set-up, not measured.
func collectRepeatWorld(b *testing.B) (*docdb.DB, *sciond.Daemon, measure.CollectOpts, measure.CollectReport) {
	spec := pathDiscSpec(1000)
	spec.MultiParentProb = 0.6
	topo, err := topology.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	local := topo.Servers()[0].IA
	daemon, err := sciond.New(topo, simnet.New(topo, simnet.Options{Seed: 1}), local)
	if err != nil {
		b.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		b.Fatal(err)
	}
	opts := measure.CollectOpts{MaxPaths: 200, HopSlack: 3} // bench/'s campaign options
	cold, err := measure.CollectPaths(context.Background(), db, daemon, opts)
	if err != nil {
		b.Fatal(err)
	}
	return db, daemon, opts, cold
}

// BenchmarkCollectPathsRepeat measures the collect stage a campaign re-runs
// every round, on a database that already holds every destination's paths
// and a world where nothing changed: every destination is compared, none is
// rewritten. Recorded in BENCH_docdb.json (docs/CAMPAIGN.md "The collect
// stage").
func BenchmarkCollectPathsRepeat(b *testing.B) {
	db, daemon, opts, cold := collectRepeatWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := measure.CollectPaths(context.Background(), db, daemon, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.PathsRetained != cold.PathsRetained || rep.PathsDeleted != 0 || rep.Rewritten != 0 {
			b.Fatalf("repeat collect retained %d deleted %d rewrote %d destinations, cold retained %d",
				rep.PathsRetained, rep.PathsDeleted, rep.Rewritten, cold.PathsRetained)
		}
	}
	b.ReportMetric(float64(cold.PathsRetained), "paths")
}

// BenchmarkCollectPathsOneChanged is the same repeat collect with one
// destination's stored documents damaged before every iteration (a
// different destination each time), so exactly one destination goes through
// the delete-and-insert: the row shows the stage costs O(what changed), not
// O(catalogue). Recorded in BENCH_docdb.json beside the row above.
func BenchmarkCollectPathsOneChanged(b *testing.B) {
	db, daemon, opts, cold := collectRepeatWorld(b)
	col := db.Collection(measure.ColPaths)
	servers, err := measure.Servers(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i, next := 0, 0; i < b.N; i++ {
		// The next destination that has stored paths to damage.
		for {
			srv := servers[next%len(servers)]
			next++
			if col.Update(docdb.Eq(measure.FServerID, srv.ID), docdb.Document{measure.FStatus: "damaged"}) > 0 {
				break
			}
		}
		rep, err := measure.CollectPaths(context.Background(), db, daemon, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.PathsRetained != cold.PathsRetained || rep.PathsDeleted != 0 || rep.Rewritten != 1 {
			b.Fatalf("collect retained %d deleted %d rewrote %d destinations, cold retained %d",
				rep.PathsRetained, rep.PathsDeleted, rep.Rewritten, cold.PathsRetained)
		}
	}
	b.StopTimer()
	if n := col.Count(); n != cold.PathsRetained {
		b.Fatalf("paths holds %d documents, cold collect retained %d", n, cold.PathsRetained)
	}
	if n := col.ForEach(docdb.Query{Filter: docdb.Eq(measure.FStatus, "damaged")}, func(docdb.Document) bool { return true }); n != 0 {
		b.Fatalf("%d damaged documents survived the collect", n)
	}
	b.ReportMetric(float64(cold.PathsRetained), "paths")
}

// BenchmarkFullCampaign runs the complete §6 data-gathering campaign over
// the 5-destination focus subset (the "~3000 samples" table row).
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.FullCampaign(context.Background(), env, experiments.Fast)
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFullCampaignParallel runs the same campaign on the sharded
// engine with 4 workers; compare against BenchmarkFullCampaign to see the
// wall-clock speedup (the merged stats database is identical either way).
// The cells are CPU-bound simulated measurements, so the speedup tracks
// GOMAXPROCS: expect ~parity on a single-core runner and close to 4x on
// four or more cores.
func BenchmarkFullCampaignParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.FullCampaignParallel(context.Background(), env, experiments.Fast, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkDocDBQueryIndexedVsScan quantifies the hash-index speedup the
// §4.2.1 scalability requirement rests on.
func BenchmarkDocDBQueryIndexedVsScan(b *testing.B) {
	build := func(indexed bool) *docdb.Collection {
		db := docdb.MustOpen()
		col := db.Collection("bench")
		batch := make([]docdb.Document, 0, 20000)
		for i := 0; i < 20000; i++ {
			batch = append(batch, docdb.Document{
				"_id": fmt.Sprintf("s%d", i), "path_id": fmt.Sprintf("2_%d", i%50),
			})
		}
		if err := col.InsertMany(batch); err != nil {
			b.Fatal(err)
		}
		if indexed {
			col.EnsureIndex("path_id")
		}
		return col
	}
	for name, indexed := range map[string]bool{"scan": false, "indexed": true} {
		b.Run(name, func(b *testing.B) {
			col := build(indexed)
			f := docdb.Eq("path_id", "2_17")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := col.Find(docdb.Query{Filter: f}); len(got) != 400 {
					b.Fatalf("got %d", len(got))
				}
			}
		})
	}
}

// BenchmarkCorrelation regenerates the §6.1 claim quantification
// (distance-vs-latency and hops-vs-latency Pearson coefficients).
func BenchmarkCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := mustEnv(b, int64(i))
		res, err := experiments.Correlation(context.Background(), env, experiments.Fast, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.DistanceVsLatency <= res.HopsVsLatency {
			b.Fatalf("distance r=%.3f !> hops r=%.3f", res.DistanceVsLatency, res.HopsVsLatency)
		}
	}
}

// BenchmarkAuthSignVerify measures the statistics-authentication overhead
// per measurement document (§4.2.2 extension).
func BenchmarkAuthSignVerify(b *testing.B) {
	trc, err := auth.NewTRC(topology.DefaultWorld().CoreASes(17)[0].IA)
	if err != nil {
		b.Fatal(err)
	}
	key, err := auth.GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	cert, err := trc.Issue(topology.MyAS, key.Public, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := docdb.Document{
			"_id": fmt.Sprintf("1_1@%d", i), "avg_latency_ms": 42.5,
			"loss_pct": 0.0, "bw_up_mtu_bps": 11.9e6,
		}
		if err := auth.SignDocument(doc, topology.MyAS, key); err != nil {
			b.Fatal(err)
		}
		if err := auth.VerifyDocument(doc, cert, trc, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommend measures the multi-criteria recommender over a
// measured candidate set (§7 future-work extension).
func BenchmarkRecommend(b *testing.B) {
	env := mustEnv(b, 2)
	id, err := env.ServerID(topology.AWSIreland)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := env.Suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, ServerIDs: []int{id},
		PingCount: 5, PingInterval: 5 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		b.Fatal(err)
	}
	engine := env.Selection()
	intent := upin.Intent{ServerID: id}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := upin.Recommend(context.Background(), engine, intent, upin.ProfileVoIP, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func mustEnv(b *testing.B, seed int64) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(seed)
	if err != nil {
		b.Fatal(err)
	}
	return env
}
