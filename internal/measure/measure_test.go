package measure

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

func suite(t testing.TB, seed int64) *Suite {
	t.Helper()
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	d, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		t.Fatal(err)
	}
	return &Suite{DB: docdb.MustOpen(), Daemon: d}
}

func TestSeedServers(t *testing.T) {
	s := suite(t, 1)
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		t.Fatal(err)
	}
	// Paper: 21 destinations, ids 1..21.
	col := s.DB.Collection(ColServers)
	if col.Count() != 21 {
		t.Fatalf("%d servers, want 21", col.Count())
	}
	servers, err := Servers(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		if srv.ID != i+1 {
			t.Errorf("server %d has id %d, want progressive 1..21", i, srv.ID)
		}
		if srv.Country == "" || srv.Operator == "" {
			t.Errorf("server %d missing metadata: %+v", srv.ID, srv)
		}
	}
	// Idempotent.
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		t.Fatal(err)
	}
	if col.Count() != 21 {
		t.Errorf("re-seeding duplicated servers: %d", col.Count())
	}
}

func TestServersErrors(t *testing.T) {
	db := docdb.MustOpen()
	db.Collection(ColServers).Insert(docdb.Document{"_id": "1", FAddress: "bogus"})
	if _, err := Servers(db); err == nil {
		t.Error("bogus address accepted")
	}
	db2 := docdb.MustOpen()
	db2.Collection(ColServers).Insert(docdb.Document{"_id": "1", FAddress: "16-ffaa:0:1002,[1.2.3.4]"})
	if _, err := Servers(db2); err == nil {
		t.Error("missing server_id accepted")
	}
}

func TestFilterByHopSlack(t *testing.T) {
	mk := func(hops int) *pathmgr.Path {
		p := &pathmgr.Path{}
		for i := 0; i < hops; i++ {
			p.Hops = append(p.Hops, pathmgr.Hop{})
		}
		return p
	}
	in := []*pathmgr.Path{mk(6), mk(6), mk(7), mk(8), mk(9)}
	out := FilterByHopSlack(in, 1)
	if len(out) != 3 {
		t.Fatalf("retained %d, want 3 (6,6,7)", len(out))
	}
	for _, p := range out {
		if p.NumHops() > 7 {
			t.Errorf("retained %d-hop path", p.NumHops())
		}
	}
	if got := FilterByHopSlack(nil, 1); len(got) != 0 {
		t.Error("empty input")
	}
	if got := FilterByHopSlack(in, 3); len(got) != 5 {
		t.Errorf("slack 3 retained %d", len(got))
	}
}

func TestCollectPaths(t *testing.T) {
	s := suite(t, 2)
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		t.Fatal(err)
	}
	rep, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServersQueried != 21 {
		t.Errorf("queried %d servers", rep.ServersQueried)
	}
	if len(rep.Errors) != 0 {
		t.Errorf("collection errors: %v", rep.Errors)
	}
	if rep.PathsRetained == 0 || rep.PathsRetained > rep.PathsDiscovered {
		t.Errorf("retained %d of %d", rep.PathsRetained, rep.PathsDiscovered)
	}

	// Stored paths respect the hop <= min+1 rule per destination.
	servers, _ := Servers(s.DB)
	for _, srv := range servers {
		pds, err := PathsForServer(s.DB, srv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(pds) == 0 {
			t.Errorf("server %d has no stored paths", srv.ID)
			continue
		}
		min := pds[0].Hops
		for _, pd := range pds {
			if pd.Hops < min {
				min = pd.Hops
			}
		}
		for _, pd := range pds {
			if pd.Hops > min+1 {
				t.Errorf("server %d path %s has %d hops, min %d", srv.ID, pd.ID, pd.Hops, min)
			}
			if !strings.HasPrefix(pd.ID, PathID(srv.ID, 0)[:2]) && pd.ServerID != srv.ID {
				t.Errorf("path id %s does not belong to server %d", pd.ID, srv.ID)
			}
			if len(pd.ISDs) == 0 || pd.MTU == 0 || len(pd.Sequence) != pd.Hops {
				t.Errorf("path %s incompletely stored: %+v", pd.ID, pd)
			}
		}
	}
}

func TestCollectPathsRequiresSeed(t *testing.T) {
	s := suite(t, 3)
	if _, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{}); err == nil {
		t.Error("collection without seeded servers accepted")
	}
}

func TestCollectPathsIdempotentAndCleansStale(t *testing.T) {
	s := suite(t, 4)
	SeedServers(s.DB, s.Daemon.Topology())
	if _, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	n1 := s.DB.Collection(ColPaths).Count()
	// The stage ensures the index its per-destination queries plan through;
	// no selection engine was built in this process to do it for them.
	if got := s.DB.Collection(ColPaths).Indexes(); len(got) != 1 || got[0] != FServerID {
		t.Errorf("paths hash indexes after collect = %v, want [%s]", got, FServerID)
	}
	// Inject a stale path that a re-collection must remove.
	s.DB.Collection(ColPaths).Insert(docdb.Document{
		"_id": PathID(1, 999), FServerID: 1, FPathIndex: 999, FHops: 99,
		FSequence: "", FISDs: []any{}, FMTU: 0,
	})
	rep, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if s.DB.Collection(ColPaths).Count() != n1 {
		t.Errorf("path count changed across identical collections: %d vs %d",
			s.DB.Collection(ColPaths).Count(), n1)
	}
	if rep.PathsDeleted != 1 {
		t.Errorf("re-collection counted %d deleted paths, want the 1 stale one", rep.PathsDeleted)
	}
	if s.DB.Collection(ColPaths).Get(PathID(1, 999)) != nil {
		t.Error("stale path survived re-collection")
	}
}

func TestRunSomeOnly(t *testing.T) {
	s := suite(t, 5)
	rep, err := s.Run(context.Background(), RunOpts{
		Iterations: 2, SomeOnly: true,
		PingCount: 5, PingInterval: 10 * time.Millisecond,
		BwDuration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Destinations != 1 {
		t.Errorf("tested %d destinations, want 1 (--some_only)", rep.Destinations)
	}
	if rep.Iterations != 2 {
		t.Errorf("iterations %d", rep.Iterations)
	}
	if rep.StatsStored == 0 {
		t.Fatal("no stats stored")
	}
	// Each stored stat has the mandatory fields.
	for _, d := range s.DB.Collection(ColStats).Find(docdb.Query{}) {
		if _, ok := d[FLoss]; !ok {
			t.Errorf("stat %s missing loss", d.ID())
		}
		if _, ok := d[FBwUp64]; !ok {
			t.Errorf("stat %s missing 64B upstream bandwidth", d.ID())
		}
		if _, ok := d[FBwDownMTU]; !ok {
			t.Errorf("stat %s missing MTU downstream bandwidth", d.ID())
		}
		if _, ok := d[FISDs]; !ok {
			t.Errorf("stat %s missing ISD set", d.ID())
		}
	}
	// Two iterations of the same path set -> stats count is twice the
	// destination's path count.
	pds, _ := PathsForServer(s.DB, 1)
	if rep.StatsStored != 2*len(pds) {
		t.Errorf("stored %d stats for %d paths x 2 iterations", rep.StatsStored, len(pds))
	}
}

func TestRunSkipRequiresCollectedPaths(t *testing.T) {
	s := suite(t, 6)
	rep, err := s.Run(context.Background(), RunOpts{
		Iterations: 1, Skip: true, SomeOnly: true,
		PingCount: 2, PingInterval: time.Millisecond,
		SkipBandwidth: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// --skip without prior collection: nothing to test, but no crash.
	if rep.StatsStored != 0 || rep.PathsTested != 0 {
		t.Errorf("skip run tested %d stored %d", rep.PathsTested, rep.StatsStored)
	}
}

func TestRunServerSubset(t *testing.T) {
	s := suite(t, 7)
	rep, err := s.Run(context.Background(), RunOpts{
		Iterations: 1, ServerIDs: []int{2, 5},
		PingCount: 3, PingInterval: 5 * time.Millisecond,
		SkipBandwidth: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Destinations != 2 {
		t.Errorf("tested %d destinations, want 2", rep.Destinations)
	}
	ids := s.DB.Collection(ColStats).Distinct(FServerID, nil)
	if len(ids) != 2 {
		t.Errorf("stats cover servers %v", ids)
	}
}

func TestRunRecordsLossDuringEpisode(t *testing.T) {
	s := suite(t, 8)
	// Outage on ETHZ-AP: every path is affected from the start.
	if err := s.Daemon.Network().ScheduleEpisode(simnet.Episode{
		IA: topology.ETHZAP, Start: 0, End: 24 * time.Hour, DropProb: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), RunOpts{
		Iterations: 1, SomeOnly: true,
		PingCount: 3, PingInterval: 5 * time.Millisecond,
		SkipBandwidth: true,
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.DB.Collection(ColStats).Find(docdb.Query{}) {
		loss, _ := d[FLoss].(float64)
		if loss != 100 {
			t.Errorf("stat %s loss %v, want 100", d.ID(), loss)
		}
		if _, hasLatency := d[FAvgLatency]; hasLatency {
			t.Errorf("stat %s has latency despite total loss", d.ID())
		}
	}
}

func TestRunClockAdvancesSequentially(t *testing.T) {
	s := suite(t, 9)
	before := s.Daemon.Network().Now()
	if _, err := s.Run(context.Background(), RunOpts{
		Iterations: 1, SomeOnly: true,
		PingCount: 2, PingInterval: 10 * time.Millisecond,
		BwDuration: 200 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// Measurements are "carried out in succession" (§6.3): the clock must
	// have advanced by at least paths * (ping + 4 bw flows).
	pds, _ := PathsForServer(s.DB, 1)
	// N pings advance (N-1)*interval; 4 bandwidth flows advance 4*duration.
	minPerPath := 1*10*time.Millisecond + 4*200*time.Millisecond
	if got := s.Daemon.Network().Now() - before; got < time.Duration(len(pds))*minPerPath {
		t.Errorf("clock advanced %v for %d paths, want >= %v", got, len(pds),
			time.Duration(len(pds))*minPerPath)
	}
}

func TestStatsIDFormat(t *testing.T) {
	if PathID(2, 15) != "2_15" {
		t.Errorf("PathID: %s", PathID(2, 15))
	}
	id := StatsID("2_15", 1500*time.Millisecond)
	if id != "2_15@1500" {
		t.Errorf("StatsID: %s", id)
	}
}
