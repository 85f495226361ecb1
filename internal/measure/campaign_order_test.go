package measure

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/sciond"
)

// The job order of the campaign engine (docs/CAMPAIGN.md "Sharding: the cell
// grid"): measured destinations are collected first, then the cells run,
// then one trailing job collects the rest of the catalogue. These tests run
// on the default world — 21 servers, three of them measured — so there is a
// catalogue beyond the measured destinations.

const orderSeed = 31

var orderMeasured = []int{2, 5, 9}

func orderOpts(workers int) RunOpts {
	opts := fastCampaignOpts(workers)
	opts.ServerIDs = orderMeasured
	return opts
}

// lookup is one path lookup the daemon answered: for which destination AS,
// and whether on the suite's own world (the collect stage) or on a cell's
// fork.
type lookup struct {
	dst  addr.IA
	root bool
}

// lookupLog records every path lookup of a suite through the daemon's fault
// hook, which forks inherit. onRoot, when set, runs on every collect-stage
// lookup after it is logged.
type lookupLog struct {
	mu     sync.Mutex
	events []lookup
	onRoot func(dst addr.IA)
}

// watchLookups seeds the servers and installs the log on the suite's daemon.
func watchLookups(t testing.TB, s *Suite) *lookupLog {
	t.Helper()
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		t.Fatal(err)
	}
	log := &lookupLog{}
	rootSeed := s.Daemon.Network().Seed()
	s.Daemon.SetFaultHook(func(dst addr.IA, seed int64, _ time.Duration) sciond.Fault {
		ev := lookup{dst: dst, root: seed == rootSeed}
		log.mu.Lock()
		log.events = append(log.events, ev)
		hook := log.onRoot
		log.mu.Unlock()
		if ev.root && hook != nil {
			hook(dst)
		}
		return sciond.FaultNone
	})
	return log
}

// collected returns the destinations the collect stage looked up, in order,
// and forgets everything logged so far.
func (l *lookupLog) collected() []addr.IA {
	l.mu.Lock()
	defer l.mu.Unlock()
	var dsts []addr.IA
	for _, ev := range l.events {
		if ev.root {
			dsts = append(dsts, ev.dst)
		}
	}
	l.events = nil
	return dsts
}

// iasOf maps server ids to the ASes the daemon is asked about (two servers
// may share one).
func iasOf(t testing.TB, db *docdb.DB, ids ...[]int) []addr.IA {
	t.Helper()
	servers, err := Servers(db)
	if err != nil {
		t.Fatal(err)
	}
	var out []addr.IA
	for _, list := range ids {
		for _, id := range list {
			out = append(out, servers[id-1].Address.IA)
		}
	}
	return out
}

// unmeasured lists the catalogue outside orderMeasured, in id order.
func unmeasured(t testing.TB, db *docdb.DB) []int {
	t.Helper()
	servers, err := Servers(db)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, srv := range servers {
		if !slices.Contains(orderMeasured, srv.ID) {
			ids = append(ids, srv.ID)
		}
	}
	return ids
}

// withPaths reports which of the destinations have stored paths.
func withPaths(db *docdb.DB, ids []int) []int {
	var have []int
	for _, id := range ids {
		if db.Collection(ColPaths).FindOne(docdb.Query{Filter: docdb.Eq(FServerID, id)}) != nil {
			have = append(have, id)
		}
	}
	return have
}

// staleStart leaves the database the way an older, narrower collect and a
// hand edit would have: two paths per destination, and under one measured
// destination a document whose sequence resolves to nothing. A cell that
// read its destination's paths before this run's collect repaired them
// would test the wrong number of paths and count an unresolved one.
func staleStart(t testing.TB, s *Suite) {
	t.Helper()
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		t.Fatal(err)
	}
	if _, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{MaxPaths: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.DB.Collection(ColPaths).Insert(docdb.Document{
		"_id": PathID(5, 999), FServerID: 5, FPathIndex: 999, FHops: 2,
		FSequence: "1-ff00:0:1#1 1-ff00:0:2#1", FISDs: []any{"1"}, FMTU: 1472,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignOrderMatchesCollectThenRun: whatever the worker count — one,
// a few, more than there are cells — the campaign stores exactly what
// "CollectPaths over the whole catalogue, then Run with Skip" stores, the
// order the engine had before: same statistics, same paths collection, same
// report. On a stale database this is also the proof that no cell reads a
// destination's stored paths before that destination's collect returned.
func TestCampaignOrderMatchesCollectThenRun(t *testing.T) {
	for _, stale := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale=%t", stale), func(t *testing.T) {
			ref := suite(t, orderSeed)
			if stale {
				staleStart(t, ref)
			} else if err := SeedServers(ref.DB, ref.Daemon.Topology()); err != nil {
				t.Fatal(err)
			}
			if _, err := CollectPaths(context.Background(), ref.DB, ref.Daemon, CollectOpts{}); err != nil {
				t.Fatal(err)
			}
			skip := orderOpts(1)
			skip.Skip = true
			wantRep, err := ref.Run(context.Background(), skip)
			if err != nil {
				t.Fatal(err)
			}
			if wantRep.StatsStored == 0 || wantRep.UnresolvedPaths != 0 {
				t.Fatalf("reference run: %+v", wantRep)
			}
			wantStats, wantPaths := statsByID(t, ref.DB), canonicalPaths(t, ref.DB)

			for _, workers := range []int{1, 4, 64} {
				s := suite(t, orderSeed)
				if stale {
					staleStart(t, s)
				}
				rep, err := s.Run(context.Background(), orderOpts(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep != wantRep {
					t.Errorf("workers=%d: report %+v, collect-then-run reports %+v", workers, rep, wantRep)
				}
				if got := statsByID(t, s.DB); !reflect.DeepEqual(got, wantStats) {
					t.Errorf("workers=%d: %d stats documents differ from collect-then-run's %d", workers, len(got), len(wantStats))
				}
				if d := diffPaths(canonicalPaths(t, s.DB), wantPaths); d != "" {
					t.Errorf("workers=%d: paths collection differs from collect-then-run's: %s", workers, d)
				}
			}
		})
	}
}

// TestCampaignCollectsMeasuredFirstCatalogueLast pins the order itself: the
// collect stage looks up the measured destinations, in id order, before any
// cell looks up anything; the rest of the catalogue follows in id order,
// whatever the worker count; and the first statistics are handed to storage
// while no unmeasured destination has been collected yet.
func TestCampaignCollectsMeasuredFirstCatalogueLast(t *testing.T) {
	for _, workers := range []int{1, 4} { // fewer than the six cells: the trailing job waits for a free worker
		s := suite(t, orderSeed)
		log := watchLookups(t, s)
		rest := unmeasured(t, s.DB)
		var once sync.Once
		var early []int
		s.SignStats = func(docdb.Document) error {
			once.Do(func() { early = withPaths(s.DB, rest) })
			return nil
		}
		if _, err := s.Run(context.Background(), orderOpts(workers)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(early) != 0 {
			t.Errorf("workers=%d: the first statistics waited for the collect of unmeasured destinations %v", workers, early)
		}
		if got := withPaths(s.DB, rest); len(got) != len(rest) {
			t.Errorf("workers=%d: after the run only %v of the %d unmeasured destinations have paths", workers, got, len(rest))
		}

		log.mu.Lock()
		for i, ev := range log.events[:len(orderMeasured)] {
			if !ev.root {
				t.Errorf("workers=%d: lookup %d is a cell's: it did not wait for the measured destinations' collect", workers, i)
			}
		}
		log.mu.Unlock()
		if got, want := log.collected(), iasOf(t, s.DB, orderMeasured, rest); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: collect order %v, want the measured destinations then the rest: %v", workers, got, want)
		}
	}
}

// TestCampaignResumeRunsTrailingCollect: a campaign interrupted in its
// cells has collected only the measured destinations; the resumed run
// re-collects none of them (its checkpoints refer to their stored paths)
// but does collect the rest, and ends with the paths, the statistics and
// the report of the uninterrupted run.
func TestCampaignResumeRunsTrailingCollect(t *testing.T) {
	ref := suite(t, orderSeed)
	wantRep, err := ref.Run(context.Background(), orderOpts(2))
	if err != nil {
		t.Fatal(err)
	}

	s := suite(t, orderSeed)
	log := watchLookups(t, s)
	rest := unmeasured(t, s.DB)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SignStats = func(docdb.Document) error { cancel(); return nil }
	if _, err := s.Run(ctx, orderOpts(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if got, want := log.collected(), iasOf(t, s.DB, orderMeasured); !reflect.DeepEqual(got, want) {
		t.Errorf("interrupted run collected %v, want only the measured destinations %v", got, want)
	}
	if got := withPaths(s.DB, rest); len(got) != 0 {
		t.Errorf("interrupted run left paths for unmeasured destinations %v", got)
	}
	checkpointed := s.DB.Collection(ColProgress).Count() - 1
	if checkpointed == 0 || checkpointed == wantRep.Iterations*wantRep.Destinations {
		t.Fatalf("%d cells checkpointed before the interrupt, want some but not all", checkpointed)
	}

	s.SignStats = nil
	opts := orderOpts(2)
	opts.Campaign.Resume = true
	rep, err := s.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got, want := log.collected(), iasOf(t, s.DB, rest); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run collected %v, want the unmeasured destinations %v and no measured one", got, want)
	}
	if rep.SkippedCells != checkpointed {
		t.Errorf("resume skipped %d cells, %d were checkpointed", rep.SkippedCells, checkpointed)
	}
	rep.SkippedCells = 0
	if rep != wantRep {
		t.Errorf("resumed report %+v, uninterrupted %+v", rep, wantRep)
	}
	if !reflect.DeepEqual(statsByID(t, s.DB), statsByID(t, ref.DB)) {
		t.Error("resumed statistics differ from the uninterrupted run's")
	}
	if d := diffPaths(canonicalPaths(t, s.DB), canonicalPaths(t, ref.DB)); d != "" {
		t.Errorf("resumed paths collection differs from the uninterrupted run's: %s", d)
	}

	// Resuming a finished campaign collects again and writes nothing.
	gen := s.DB.Collection(ColPaths).Generation()
	if _, err := s.Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if got, want := log.collected(), iasOf(t, s.DB, rest); !reflect.DeepEqual(got, want) {
		t.Errorf("second resume collected %v, want %v", got, want)
	}
	if g := s.DB.Collection(ColPaths).Generation(); g != gen {
		t.Errorf("second resume moved the paths generation %d -> %d", gen, g)
	}
}

// TestCampaignCancelInsideTrailingCollect: cancellation inside the trailing
// job stops it at the next destination boundary; Run returns ctx's error,
// every cell is stored, the destinations collected so far keep their paths,
// and a resume finishes the catalogue.
func TestCampaignCancelInsideTrailingCollect(t *testing.T) {
	ref := suite(t, orderSeed)
	wantRep, err := ref.Run(context.Background(), orderOpts(1))
	if err != nil {
		t.Fatal(err)
	}

	s := suite(t, orderSeed)
	log := watchLookups(t, s)
	rest := unmeasured(t, s.DB)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	third := iasOf(t, s.DB, rest[2:3])[0]
	log.onRoot = func(dst addr.IA) {
		if dst == third {
			cancel()
		}
	}
	rep, err := s.Run(ctx, orderOpts(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled inside the trailing collect returned %v, want context.Canceled", err)
	}
	if rep != wantRep {
		t.Errorf("every cell ran before the trailing collect, yet the report is %+v, want %+v", rep, wantRep)
	}
	// The destination being collected when ctx fell is finished; the next
	// one is not started.
	if got := withPaths(s.DB, rest); !reflect.DeepEqual(got, rest[:3]) {
		t.Errorf("after the cancel, unmeasured destinations %v have paths, want %v", got, rest[:3])
	}
	if got := withPaths(s.DB, orderMeasured); !reflect.DeepEqual(got, orderMeasured) {
		t.Errorf("after the cancel, measured destinations %v have paths, want %v", got, orderMeasured)
	}

	log.onRoot = nil
	opts := orderOpts(1)
	opts.Campaign.Resume = true
	rep, err = s.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.SkippedCells != wantRep.Iterations*wantRep.Destinations {
		t.Errorf("resume skipped %d cells, want all %d", rep.SkippedCells, wantRep.Iterations*wantRep.Destinations)
	}
	if d := diffPaths(canonicalPaths(t, s.DB), canonicalPaths(t, ref.DB)); d != "" {
		t.Errorf("resumed paths collection differs from the uninterrupted run's: %s", d)
	}
}

// TestCampaignSkipCollectsNothing: Skip means no lookup by the collect stage
// and no write to the paths collection, before the cells or after them.
func TestCampaignSkipCollectsNothing(t *testing.T) {
	s := suite(t, orderSeed)
	log := watchLookups(t, s)
	if _, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	s.DB.Collection(ColPaths).Delete(docdb.Eq(FServerID, 12)) // a gap a collect would fill
	log.collected()
	gen := s.DB.Collection(ColPaths).Generation()
	opts := orderOpts(2)
	opts.Skip = true
	rep, err := s.Run(context.Background(), opts)
	if err != nil || rep.StatsStored == 0 {
		t.Fatalf("skip run: %+v, err %v", rep, err)
	}
	if got := log.collected(); len(got) != 0 {
		t.Errorf("skip run collected %v", got)
	}
	if g := s.DB.Collection(ColPaths).Generation(); g != gen {
		t.Errorf("skip run moved the paths generation %d -> %d", gen, g)
	}
}

var errInjectedWrite = errors.New("injected write fault")

// failNthWrite is a docdb.Failpoint failing the nth write batch to one
// collection.
type failNthWrite struct {
	collection string
	nth        int

	mu   sync.Mutex
	seen int
}

func (f *failNthWrite) BeforeWrite(collection, _ string, _ int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if collection != f.collection {
		return nil
	}
	if f.seen++; f.seen == f.nth {
		return errInjectedWrite
	}
	return nil
}

func (f *failNthWrite) ReplayEntry(int, string) bool { return true }

// TestPathsWriteErrorAbortsRun: a lookup failure is per destination and the
// stage goes on, but a failed write to the paths collection — which leaves
// the destination without paths, its old ones already deleted — aborts the
// stage and the run with the error, on either runner, before the cells or
// in the trailing job. It used to be filed next to the lookup failures in a
// report both runners discard.
func TestPathsWriteErrorAbortsRun(t *testing.T) {
	wantErr := func(t *testing.T, err error, server int) {
		t.Helper()
		if !errors.Is(err, errInjectedWrite) || !strings.Contains(err.Error(), fmt.Sprintf("storing paths for server %d:", server)) {
			t.Errorf("error %v, want the injected fault wrapped as a paths write error for server %d", err, server)
		}
	}

	t.Run("CollectPaths", func(t *testing.T) {
		s := faultySuite(t, orderSeed, 2)
		s.DB.SetFailpoint(&failNthWrite{collection: ColPaths, nth: 3})
		rep, err := CollectPaths(context.Background(), s.DB, s.Daemon, CollectOpts{})
		wantErr(t, err, 4) // server 2's lookup fails and writes nothing
		if rep.ServersQueried != 4 || rep.Rewritten != 2 || len(rep.Errors) != 1 || rep.Errors[2] == nil {
			t.Errorf("report at the abort: %+v", rep)
		}
	})

	t.Run("sequential runner", func(t *testing.T) {
		s := suite(t, orderSeed)
		s.DB.SetFailpoint(&failNthWrite{collection: ColPaths, nth: 7})
		_, err := s.Run(context.Background(), orderOpts(0))
		wantErr(t, err, 7)
		if n := s.DB.Collection(ColStats).Count(); n != 0 {
			t.Errorf("%d statistics stored after the collect failed", n)
		}
	})

	t.Run("up-front collect", func(t *testing.T) {
		s := suite(t, orderSeed)
		s.DB.SetFailpoint(&failNthWrite{collection: ColPaths, nth: 2})
		_, err := s.Run(context.Background(), orderOpts(2))
		wantErr(t, err, 5)
		if n := s.DB.Collection(ColStats).Count() + s.DB.Collection(ColProgress).Count(); n != 0 {
			t.Errorf("%d statistics and checkpoint documents stored after the collect failed", n)
		}
	})

	t.Run("trailing job", func(t *testing.T) {
		ref := suite(t, orderSeed)
		wantRep, err := ref.Run(context.Background(), orderOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		s := suite(t, orderSeed)
		s.DB.SetFailpoint(&failNthWrite{collection: ColPaths, nth: len(orderMeasured) + 2})
		rep, err := s.Run(context.Background(), orderOpts(2))
		wantErr(t, err, 3) // the rest is 1, 3, 4, ...
		if rep != wantRep {
			t.Errorf("report beside the error %+v, want every cell accounted for: %+v", rep, wantRep)
		}
		// The database is resumable: the fault was transient.
		opts := orderOpts(2)
		opts.Campaign.Resume = true
		if _, err := s.Run(context.Background(), opts); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if d := diffPaths(canonicalPaths(t, s.DB), canonicalPaths(t, ref.DB)); d != "" {
			t.Errorf("resumed paths collection differs from the undisturbed run's: %s", d)
		}
	})
}

// TestCollectLookupErrorKeepsStoredPaths: a destination whose lookup fails
// keeps the paths an earlier collect stored (§4.1.2), and the error is
// reported against it.
func TestCollectLookupErrorKeepsStoredPaths(t *testing.T) {
	s := faultySuite(t, orderSeed)
	ctx := context.Background()
	if _, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	before := canonicalPaths(t, s.DB)
	gen := s.DB.Collection(ColPaths).Generation()
	servers, _ := Servers(s.DB)
	down := servers[3].Address.IA
	s.Daemon.SetFaultHook(func(dst addr.IA, _ int64, _ time.Duration) sciond.Fault {
		if dst == down {
			return sciond.FaultLookupError
		}
		return sciond.FaultNone
	})
	rep, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || rep.Errors[4] == nil || rep.ServersQueried != len(servers) {
		t.Errorf("report %+v, want every server queried and one lookup error, for server 4", rep)
	}
	if d := diffPaths(canonicalPaths(t, s.DB), before); d != "" || s.DB.Collection(ColPaths).Generation() != gen {
		t.Errorf("a failed lookup changed the stored paths: %s", d)
	}
}
