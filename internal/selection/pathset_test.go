package selection

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/topology"
)

// craftedWorld builds an engine over hand-written paths to srvs[0] of the
// default world. Each entry is (sequence tail through the given interior
// ASes, avg latency); every path starts at src and ends at the
// destination, so overlap is exactly the interior the test dictates.
func craftedWorld(t *testing.T, paths []craftedPath) (*Engine, int) {
	t.Helper()
	topo := topology.DefaultWorld()
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		t.Fatal(err)
	}
	srvs, err := measure.Servers(db)
	if err != nil || len(srvs) == 0 {
		t.Fatalf("no servers (%v)", err)
	}
	sid, dst := srvs[0].ID, srvs[0].Address.IA
	var iaPool []string
	for _, as := range topo.ASes() {
		if as.IA != dst {
			iaPool = append(iaPool, as.IA.String())
		}
	}
	if len(iaPool) < 4 {
		t.Fatalf("default world too small: %d non-destination ASes", len(iaPool))
	}
	src := iaPool[0]
	var pd, sd []docdb.Document
	for i, p := range paths {
		parts := []string{src}
		for _, via := range p.via {
			parts = append(parts, iaPool[via])
		}
		parts = append(parts, dst.String())
		id := measure.PathID(sid, i)
		pd = append(pd, docdb.Document{
			"_id":              id,
			measure.FServerID:  sid,
			measure.FPathIndex: i,
			measure.FHops:      len(parts),
			measure.FSequence:  strings.Join(parts, " "),
			measure.FMTU:       1472,
		})
		sd = append(sd, docdb.Document{
			"_id":               fmt.Sprintf("%s@1#0", id),
			measure.FPathID:     id,
			measure.FServerID:   sid,
			measure.FTimestamp:  int64(1_700_000_000_000),
			measure.FLoss:       1.0,
			measure.FAvgLatency: p.latency,
			measure.FMdev:       1.0,
		})
	}
	if err := db.Collection(measure.ColPaths).InsertMany(pd); err != nil {
		t.Fatal(err)
	}
	if err := db.Collection(measure.ColStats).InsertMany(sd); err != nil {
		t.Fatal(err)
	}
	return New(db, topo), sid
}

type craftedPath struct {
	via     []int // indexes into the non-destination AS pool (index 0 = src)
	latency float64
}

// TestSelectSetCostTieGoesToBetterRank crafts an exact marginal-cost tie
// between two candidates of different score: the greedy ranks nothing up
// front, so its tie-break must itself reproduce Select's order (score, then
// catalogue index) — here against catalogue order, which lists the worse-
// scored candidate first.
func TestSelectSetCostTieGoesToBetterRank(t *testing.T) {
	t.Parallel()
	e, sid := craftedWorld(t, []craftedPath{
		{via: []int{1, 2}, latency: 10}, // A: best
		{via: []int{3}, latency: 20},    // X: disjoint from A, norm (20-10)/(50-10) = 0.25
		{via: []int{2, 1}, latency: 10}, // Y: ties A's score; A's interior reversed: no shared link, AS overlap 1 -> 0.25
		{via: []int{4}, latency: 50},    // Z: anchors the normalization span
	})
	sreq := SetRequest{Request: Request{Objective: LowestLatency}, K: 2}.withDefaults()
	set, err := e.SelectSet(context.Background(), sid, sreq)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{measure.PathID(sid, 0), measure.PathID(sid, 2)}
	if got := pathIDs(set); !reflect.DeepEqual(got, want) {
		t.Fatalf("cost tie at 0.25 between X (score 20) and Y (score 10): got %v, want [A Y]", got)
	}
	if oracle := bruteForceSet(t, e, sid, sreq); !reflect.DeepEqual(oracle, want) {
		t.Fatalf("brute-force optimum %v, want [A Y]", oracle)
	}
}

// TestAxiomDisjointnessPreference is the disjointness axiom on a crafted
// pool: between two score-TIED candidates, the one sharing less with the
// already-chosen set wins, even when the overlapping one ranks earlier.
// With both penalties disabled SelectSet degenerates to top-K by score and
// the rank order reasserts itself.
func TestAxiomDisjointnessPreference(t *testing.T) {
	t.Parallel()
	// A (best) and B route via AS 1; C ties B's score exactly but routes
	// via AS 2, sharing nothing with A beyond the endpoints.
	e, sid := craftedWorld(t, []craftedPath{
		{via: []int{1}, latency: 10}, // A: the unconditional best path
		{via: []int{1}, latency: 50}, // B: tied with C, fully overlaps A
		{via: []int{2}, latency: 50}, // C: tied with B, disjoint from A
	})
	ctx := context.Background()
	req := Request{Objective: LowestLatency}

	set, err := e.SelectSet(ctx, sid, SetRequest{Request: req, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := pathIDs(set); !reflect.DeepEqual(got, []string{measure.PathID(sid, 0), measure.PathID(sid, 2)}) {
		t.Fatalf("disjointness preference violated: got %v, want [A C]", got)
	}
	if set.SharedLinks != 0 || set.SharedASes != 0 || set.Disjointness != 1 {
		t.Fatalf("A+C should be fully disjoint: %+v", set)
	}

	// Negative weights disable the penalties: top-K by score, B outranks C.
	set, err = e.SelectSet(ctx, sid, SetRequest{Request: req, K: 2, LinkPenalty: -1, ASPenalty: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := pathIDs(set); !reflect.DeepEqual(got, []string{measure.PathID(sid, 0), measure.PathID(sid, 1)}) {
		t.Fatalf("disabled penalties should yield top-K by score: got %v, want [A B]", got)
	}
	// A and B share both links (src>via1, via1>dst): all 4 traversals
	// shared, and the one interior AS is shared from both sides.
	if set.SharedLinks != 4 || set.SharedASes != 2 || set.Disjointness != 0 {
		t.Fatalf("A+B overlap accounting wrong: %+v", set)
	}
}

func TestSetRequestDefaults(t *testing.T) {
	t.Parallel()
	got := SetRequest{}.withDefaults()
	if got.K != defaultSetK || got.LinkPenalty != defaultLinkPenalty || got.ASPenalty != defaultASPenalty {
		t.Fatalf("zero request defaults wrong: %+v", got)
	}
	got = SetRequest{K: -3, LinkPenalty: -0.5, ASPenalty: -2}.withDefaults()
	if got.K != defaultSetK || got.LinkPenalty != 0 || got.ASPenalty != 0 {
		t.Fatalf("negative knobs should clamp: %+v", got)
	}
	got = SetRequest{K: 7, LinkPenalty: 0.3, ASPenalty: 0.7}.withDefaults()
	if got.K != 7 || got.LinkPenalty != 0.3 || got.ASPenalty != 0.7 {
		t.Fatalf("explicit knobs must pass through: %+v", got)
	}
}

func TestSelectSetErrors(t *testing.T) {
	t.Parallel()
	e, _, ids := collectedWorld(t, 3)
	ctx := context.Background()

	if _, err := e.SelectSet(ctx, 999999, SetRequest{}); err == nil ||
		!strings.Contains(err.Error(), "no collected paths") {
		t.Fatalf("unknown server: got %v", err)
	}
	// No measurements collected yet: every candidate fails MinSamples.
	if _, err := e.SelectSet(ctx, ids[0], SetRequest{Request: Request{MinSamples: 1}}); err == nil ||
		!strings.Contains(err.Error(), "satisfies the request") {
		t.Fatalf("unsatisfiable request: got %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.SelectSet(cancelled, ids[0], SetRequest{}); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled context: got %v", err)
	}
}

// TestSelectSetSharesSnapshot pins the serving contract: SelectSet reads
// the same cached snapshot as Select — repeated calls trigger no further
// rebuilds or folds, and the overlap keys computed at rebuild time are
// reused as-is.
func TestSelectSetSharesSnapshot(t *testing.T) {
	t.Parallel()
	e, db, ids := collectedWorld(t, 5)
	w := newStatsWriter(t, db, 5)
	w.insertInOrder(t, 40)
	ctx := context.Background()

	if _, err := e.SelectSet(ctx, ids[0], SetRequest{K: 3}); err != nil {
		t.Fatal(err)
	}
	rebuilds0, folds0, _ := e.Counters()
	for i := 0; i < 10; i++ {
		if _, err := e.SelectSet(ctx, ids[0], SetRequest{K: 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Select(ctx, ids[0], Request{}); err != nil {
			t.Fatal(err)
		}
	}
	rebuilds, folds, _ := e.Counters()
	if rebuilds != rebuilds0 || folds != folds0 {
		t.Fatalf("SelectSet on an unchanged db refreshed the snapshot: rebuilds %d->%d folds %d->%d",
			rebuilds0, rebuilds, folds0, folds)
	}

	// New in-order stats must be visible through SelectSet via the same
	// incremental fold Select uses — still no full rebuild.
	w.insertInOrder(t, 20)
	set, err := e.SelectSet(ctx, ids[0], SetRequest{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Paths) == 0 {
		t.Fatal("empty set after fold")
	}
	rebuilds2, folds2, _ := e.Counters()
	if rebuilds2 != rebuilds || folds2 != folds+1 {
		t.Fatalf("expected exactly one incremental fold: rebuilds %d->%d folds %d->%d",
			rebuilds, rebuilds2, folds, folds2)
	}
}

// TestSelectSetConcurrent exercises the lock-free read path under the race
// detector: concurrent SelectSet readers against a live stats writer.
func TestSelectSetConcurrent(t *testing.T) {
	t.Parallel()
	e, db, ids := collectedWorld(t, 7)
	w := newStatsWriter(t, db, 7)
	w.insertInOrder(t, 30)
	ctx := context.Background()
	sid := ids[0]

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for round := 0; round < 120; round++ {
			if round%10 == 9 {
				w.insertOutOfOrder(t, 1)
			} else {
				w.insertInOrder(t, 2)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func(k int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set, err := e.SelectSet(ctx, sid, SetRequest{K: k})
				if err != nil {
					t.Errorf("selectset: %v", err)
					return
				}
				seen := map[string]bool{}
				for _, c := range set.Paths {
					if seen[c.PathID] {
						t.Errorf("duplicate path %s in concurrent set", c.PathID)
						return
					}
					seen[c.PathID] = true
				}
			}
		}(1 + g)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}
