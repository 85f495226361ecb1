// Integration tests exercising the whole pipeline across module
// boundaries: world -> beaconing -> collection -> measurement -> storage ->
// selection -> UPIN verification, including persistence across process
// restarts and crash recovery of the log.
package scionpath

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
)

// TestFullPipelinePersistence runs a campaign into a log, "restarts"
// (new world, same log), and selects paths from the replayed data.
func TestFullPipelinePersistence(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "stats.db")

	// Session 1: collect + measure Ireland.
	w1, err := cliutil.NewWorld(5, dbPath)
	if err != nil {
		t.Fatal(err)
	}
	suite := &measure.Suite{DB: w1.DB, Daemon: w1.Daemon}
	rep, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, ServerIDs: []int{1},
		PingCount: 5, PingInterval: 10 * time.Millisecond,
		BwDuration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsStored == 0 {
		t.Fatal("no stats stored")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: replay, then select without re-measuring.
	w2, err := cliutil.NewWorld(6, dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.DB.Collection(measure.ColStats).Count(); got != rep.StatsStored {
		t.Fatalf("replayed %d stats, stored %d", got, rep.StatsStored)
	}
	engine := selection.New(w2.DB, w2.Topo)
	best, err := engine.Best(context.Background(), 1, selection.Request{Objective: selection.LowestLatency})
	if err != nil {
		t.Fatal(err)
	}
	if best.Samples != 2 {
		t.Errorf("best path has %d samples, want 2", best.Samples)
	}

	// Session 2 continues measuring; ids must not collide with session 1.
	suite2 := &measure.Suite{DB: w2.DB, Daemon: w2.Daemon}
	if _, err := suite2.Run(context.Background(), measure.RunOpts{
		Iterations: 1, Skip: true, ServerIDs: []int{1},
		PingCount: 5, PingInterval: 10 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
}

// TestCrashRecovery truncates the log mid-write and verifies the next
// session keeps everything before the torn record.
func TestCrashRecovery(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "stats.db")
	w, err := cliutil.NewWorld(7, dbPath)
	if err != nil {
		t.Fatal(err)
	}
	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 1, ServerIDs: []int{1},
		PingCount: 3, PingInterval: 5 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log: chop the statistics shard's final record in half.
	shard := filepath.Join(dbPath, "c-"+measure.ColStats+".seg")
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := cliutil.NewWorld(8, dbPath)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer w2.Close()
	// The paper's design point: losing one unflushed sample is negligible
	// and must not unbalance anything else (§4.2.2).
	if w2.DB.Collection(measure.ColServers).Count() != 21 {
		t.Error("server catalogue lost in recovery")
	}
	if w2.DB.Collection(measure.ColPaths).Count() == 0 {
		t.Error("paths lost in recovery")
	}
}

// TestUPINPipelineOverMeasuredDB drives controller -> tracer -> verifier
// over a log-backed campaign.
func TestUPINPipelineOverMeasuredDB(t *testing.T) {
	w, err := cliutil.NewWorld(9, "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, ServerIDs: []int{1},
		PingCount: 5, PingInterval: 10 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		t.Fatal(err)
	}
	explorer := upin.NewDomainExplorer(w.Topo, []addr.ISD{16, 17, 19})
	engine := selection.New(w.DB, w.Topo)
	intent := upin.Intent{ServerID: 1, Request: selection.Request{
		ExcludeCountries: []string{"United States", "Singapore"},
	}}
	dec, err := upin.NewController(w.Daemon, engine, explorer).Decide(context.Background(), topology.AWSIreland, intent)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := upin.NewTracer(w.Net).Trace(dec, 2)
	if err != nil {
		t.Fatal(err)
	}
	verdict := upin.NewVerifier(explorer).Verify(intent, trace)
	if !verdict.Satisfied {
		t.Errorf("verified intent violated: %v", verdict.Violations)
	}
}

// TestConcurrentReadersDuringCampaign runs selection queries concurrently
// with an ongoing measurement campaign (run with -race in CI).
func TestConcurrentReadersDuringCampaign(t *testing.T) {
	w, err := cliutil.NewWorld(10, "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	// Prime the paths so readers have something to join against.
	if _, err := measure.CollectPaths(context.Background(), w.DB, w.Daemon, measure.CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	engine := selection.New(w.DB, w.Topo)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Selection may find zero candidates early on; only hard
				// errors matter here.
				if _, err := engine.Select(context.Background(), 1, selection.Request{}); err != nil &&
					!strings.Contains(err.Error(), "no collected paths") {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, Skip: true, ServerIDs: []int{1},
		PingCount: 3, PingInterval: 2 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
}

// TestDeterminismAcrossRuns re-runs an identical campaign and compares the
// stored statistics byte for byte.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []docdb.Document {
		w, err := cliutil.NewWorld(11, "")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
		if _, err := suite.Run(context.Background(), measure.RunOpts{
			Iterations: 1, ServerIDs: []int{1},
			PingCount: 5, PingInterval: 10 * time.Millisecond,
			BwDuration: 200 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		return w.DB.Collection(measure.ColStats).Find(docdb.Query{SortBy: "_id"})
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for _, field := range []string{measure.FAvgLatency, measure.FLoss, measure.FBwUp64, measure.FBwDownMTU} {
			if a[i][field] != b[i][field] {
				t.Errorf("doc %s field %s: %v vs %v", a[i].ID(), field, a[i][field], b[i][field])
			}
		}
	}
}

// TestEpisodeVisibleEndToEnd injects an outage through the public pipeline
// and checks it shows up in the database and flips path status probes.
func TestEpisodeVisibleEndToEnd(t *testing.T) {
	w, err := cliutil.NewWorld(12, "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Net.ScheduleEpisode(simnet.Episode{
		IA: topology.ETHZAP, Start: 0, End: time.Hour, DropProb: 1,
	}); err != nil {
		t.Fatal(err)
	}
	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 1, ServerIDs: []int{1},
		PingCount: 3, PingInterval: 5 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		t.Fatal(err)
	}
	stats := w.DB.Collection(measure.ColStats).Find(docdb.Query{})
	if len(stats) == 0 {
		t.Fatal("no stats")
	}
	for _, d := range stats {
		if loss, _ := d[measure.FLoss].(float64); loss != 100 {
			t.Errorf("stat %s loss %v during total outage", d.ID(), d[measure.FLoss])
		}
	}
}
