package chaos

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/topology"
)

// sweepSeeds is the tier-1 seed range: every seed runs the full chaotic
// campaign (crashes, resumes, truncation) against its oracle and must pass
// all four invariants.
const sweepSeeds = 50

func runSeed(t *testing.T, seed int64) *Result {
	t.Helper()
	res, err := Run(context.Background(), seed, filepath.Join(t.TempDir(), "chaos.db"))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Cleanup(func() { res.Close() })
	if err := Verify(context.Background(), res); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

// A cancelled caller context must abort the whole harness promptly — it is
// the one cancellation the fault injector never arms itself.
func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, 1, filepath.Join(t.TempDir(), "chaos.db"))
	if err == nil {
		res.Close()
		t.Fatal("Run completed under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestChaosSweep runs the seed range on the segment log; the "segment"
// subtest names the on-disk format the crashes damage.
func TestChaosSweep(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		var interrupted, cellFailures atomic.Int64
		t.Run("seeds", func(t *testing.T) {
			for seed := int64(1); seed <= sweepSeeds; seed++ {
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					t.Parallel()
					res := runSeed(t, seed)
					if res.Rounds > 1 {
						interrupted.Add(1)
					}
					cellFailures.Add(int64(res.Report.Failures))
				})
			}
		})
		// The sweep must actually exercise recovery, not accidentally draw
		// 50 benign plans: most plans schedule at least one crash round.
		if n := interrupted.Load(); n < sweepSeeds/2 {
			t.Errorf("only %d/%d seeds interrupted the campaign; faults are not engaging", n, sweepSeeds)
		}
		t.Logf("interrupted runs: %d/%d, cell-level failures: %d", interrupted.Load(), sweepSeeds, cellFailures.Load())
	})
}

// TestChaosSmall is the -race subset verify.sh runs: a handful of full
// chaotic runs under the race detector.
func TestChaosSmall(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
				t.Parallel()
				runSeed(t, seed)
			})
		}
	})
}

// TestPlanDeterminism pins the harness's core property: the fault schedule
// is a pure function of the seed.
func TestPlanDeterminism(t *testing.T) {
	topo := topology.DefaultWorld()
	distinct := 0
	for seed := int64(0); seed < 20; seed++ {
		a := NewPlan(seed, topo)
		b := NewPlan(seed, topo)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%+v\n%+v", seed, a, b)
		}
		if !reflect.DeepEqual(a, NewPlan(seed+1, topo)) {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("every seed produced the same plan; the generator ignores its seed")
	}
}

// TestPlanShape checks the generated faults respect the constraints the
// runner's correctness argument depends on.
func TestPlanShape(t *testing.T) {
	topo := topology.DefaultWorld()
	for seed := int64(0); seed < 200; seed++ {
		p := NewPlan(seed, topo)
		if len(p.Crashes) < 1 {
			t.Fatalf("seed %d: no crash rounds", seed)
		}
		for _, c := range p.Crashes {
			if c.AfterCheckpoints < 1 {
				t.Fatalf("seed %d: crash with AfterCheckpoints %d", seed, c.AfterCheckpoints)
			}
		}
		for _, w := range p.Writes {
			switch w.Collection {
			case "paths_stats":
				if w.Nth < 1 {
					t.Fatalf("seed %d: stats fault at write %d", seed, w.Nth)
				}
			case "campaign_progress":
				// Write #1 is the campaign meta document; faulting it would
				// make the run restart fresh and legitimately diverge.
				if w.Nth < 2 {
					t.Fatalf("seed %d: checkpoint fault at write %d would hit the campaign meta", seed, w.Nth)
				}
			default:
				t.Fatalf("seed %d: write fault on unexpected collection %q", seed, w.Collection)
			}
		}
		for _, ep := range p.Network.Episodes {
			if ep.End <= ep.Start || ep.DropProb <= 0 || ep.DropProb > 1 {
				t.Fatalf("seed %d: malformed episode %+v", seed, ep)
			}
		}
		for _, o := range p.Network.Outages {
			if o.End <= o.Start {
				t.Fatalf("seed %d: malformed outage %+v", seed, o)
			}
		}
	}
}

// TestTruncateTailBoundedByMeta: a crash loses every shard's uncommitted
// suffix, but never the campaign metadata record (or anything committed
// before it), and a log that never recorded the metadata is refused.
func TestTruncateTailBoundedByMeta(t *testing.T) {
	// big overflows the log's write buffer, so its bytes reach the shard
	// file without a commit marker behind them — the suffix a crash loses.
	big := strings.Repeat("x", 1<<17)
	meta := docdb.Document{"_id": measure.CampaignMetaID("camp"), "campaign": "camp"}
	open := func(t *testing.T, path string) *docdb.DB {
		t.Helper()
		db, err := docdb.Open(docdb.WithPath(path))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	insert := func(t *testing.T, db *docdb.DB, col string, doc docdb.Document) {
		t.Helper()
		if err := db.Collection(col).Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	// crashAndReopen checks that the uncommitted record id reached the
	// shard file of col, truncates the abandoned log and replays what
	// survived.
	crashAndReopen := func(t *testing.T, path, col, id string) *docdb.DB {
		t.Helper()
		pre := open(t, path)
		if pre.Collection(col).Get(id) == nil {
			t.Fatalf("%s never reached the shard file; no cut could be observed", id)
		}
		if err := pre.Close(); err != nil {
			t.Fatal(err)
		}
		if err := truncateTail(path, "camp"); err != nil {
			t.Fatal(err)
		}
		db := open(t, path)
		t.Cleanup(func() { db.Close() })
		return db
	}

	t.Run("committed meta, uncommitted stats", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "chaos.db")
		db := open(t, path)
		insert(t, db, measure.ColPaths, docdb.Document{"_id": "p1"})
		insert(t, db, measure.ColProgress, meta)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		insert(t, db, measure.ColStats, docdb.Document{"_id": "s1", "pad": big})
		re := crashAndReopen(t, path, measure.ColStats, "s1") // db abandoned without Close
		if re.Collection(measure.ColPaths).Get("p1") == nil || re.Collection(measure.ColProgress).Get(meta.ID()) == nil {
			t.Fatal("truncation cut committed records")
		}
		if re.Collection(measure.ColStats).Get("s1") != nil {
			t.Fatal("uncommitted suffix survived the crash")
		}
	})
	t.Run("uncommitted meta floors the cut", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "chaos.db")
		db := open(t, path)
		insert(t, db, measure.ColProgress, meta)
		insert(t, db, measure.ColProgress, docdb.Document{"_id": "ckpt", "pad": big})
		re := crashAndReopen(t, path, measure.ColProgress, "ckpt")
		if re.Collection(measure.ColProgress).Get(meta.ID()) == nil {
			t.Fatal("truncation cut into the meta record")
		}
		if re.Collection(measure.ColProgress).Get("ckpt") != nil {
			t.Fatal("uncommitted record after the meta survived the crash")
		}
	})
	t.Run("no meta refuses", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "chaos.db")
		db := open(t, path)
		insert(t, db, measure.ColPaths, docdb.Document{"_id": "p1"})
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if err := truncateTail(path, "camp"); err == nil {
			t.Fatal("truncateTail without a meta record should refuse")
		}
	})
}
