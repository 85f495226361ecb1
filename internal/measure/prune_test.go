package measure

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

func TestPruneStats(t *testing.T) {
	s := suite(t, 60)
	if _, err := s.Run(context.Background(), RunOpts{
		Iterations: 3, ServerIDs: []int{1},
		PingCount: 3, PingInterval: 5 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		t.Fatal(err)
	}
	total := s.DB.Collection(ColStats).Count()
	if total == 0 {
		t.Fatal("no stats")
	}
	// Prune everything before the second iteration: the first iteration's
	// documents go, the later ones stay.
	var cutoff time.Duration
	docs := s.DB.Collection(ColStats).Find(docdb.Query{SortBy: FTimestamp})
	mid := docs[total/3]
	if ms, ok := mid[FTimestamp].(int64); ok {
		cutoff = time.Duration(ms) * time.Millisecond
	} else {
		cutoff = time.Duration(mid[FTimestamp].(float64)) * time.Millisecond
	}
	removed, err := PruneStats(s.DB, cutoff)
	if err != nil {
		t.Fatalf("PruneStats: %v", err)
	}
	if removed == 0 || removed >= total {
		t.Fatalf("pruned %d of %d", removed, total)
	}
	for _, d := range s.DB.Collection(ColStats).Find(docdb.Query{}) {
		ts, _ := d[FTimestamp].(int64)
		if time.Duration(ts)*time.Millisecond < cutoff {
			t.Errorf("stale doc %s survived", d.ID())
		}
	}
}

func TestRetentionPolicy(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.db")
	db, err := docdb.Open(docdb.WithPath(dbPath))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 61})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		t.Fatal(err)
	}
	s := &Suite{DB: db, Daemon: daemon}

	policy := &RetentionPolicy{Window: 30 * time.Second, CompactEvery: 2}
	var removedTotal int
	var compactions int
	for round := 0; round < 4; round++ {
		if _, err := s.Run(context.Background(), RunOpts{
			Iterations: 1, ServerIDs: []int{1}, Skip: round > 0,
			PingCount: 3, PingInterval: 5 * time.Millisecond, SkipBandwidth: true,
		}); err != nil {
			t.Fatal(err)
		}
		net.Advance(25 * time.Second)
		removed, compacted, err := policy.Apply(db, net.Now())
		if err != nil {
			t.Fatal(err)
		}
		removedTotal += removed
		if compacted {
			compactions++
		}
	}
	if removedTotal == 0 {
		t.Error("retention window never pruned anything")
	}
	if compactions != 2 {
		t.Errorf("%d compactions, want 2 (every 2nd apply)", compactions)
	}
	// Log still replayable.
	db.Close()
	db2, err := docdb.Open(docdb.WithPath(dbPath))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Collection(ColStats).Count() == 0 {
		t.Error("all stats lost after retention maintenance")
	}
	if entries, err := os.ReadDir(dbPath); err != nil || len(entries) == 0 {
		t.Errorf("log directory state: %d entries, %v", len(entries), err)
	}
}
