package measure

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// collectPathsOracle is the collect stage as it was before the no-op rule:
// every destination's documents are deleted and written again, whatever is
// stored. It is the definition CollectPaths must stay indistinguishable
// from, document for document.
func collectPathsOracle(db *docdb.DB, d *sciond.Daemon, opts CollectOpts) (CollectReport, error) {
	opts = opts.withDefaults()
	rep := CollectReport{Errors: map[int]error{}}
	servers, err := Servers(db)
	if err != nil {
		return rep, err
	}
	col := db.Collection(ColPaths)
	for _, srv := range servers {
		rep.ServersQueried++
		paths, err := d.ShowPaths(srv.Address.IA, sciond.ShowPathsOpts{
			MaxPaths: opts.MaxPaths, Extended: true, Probe: opts.Probe,
		})
		if err != nil {
			rep.Errors[srv.ID] = err
			continue
		}
		rep.PathsDiscovered += len(paths)
		paths = FilterByHopSlack(paths, opts.HopSlack)
		docs := make([]docdb.Document, 0, len(paths))
		liveIDs := map[string]bool{}
		for i, p := range paths {
			id := PathID(srv.ID, i)
			liveIDs[id] = true
			isds := []any{}
			for _, isd := range p.ISDSet() {
				isds = append(isds, fmt.Sprint(int(isd)))
			}
			docs = append(docs, docdb.Document{
				"_id": id, FServerID: srv.ID, FPathIndex: i, FHops: p.NumHops(),
				FSequence: pathmgr.PathSequence(p).String(), FISDs: isds, FMTU: p.MTU,
				FMinLatency: float64(p.MinLatency) / float64(time.Millisecond),
				FStatus:     p.Status, FFingerprint: p.Fingerprint(),
			})
		}
		byServer := docdb.Eq(FServerID, srv.ID)
		col.ForEach(docdb.Query{Filter: byServer}, func(old docdb.Document) bool {
			if !liveIDs[old.ID()] {
				rep.PathsDeleted++
			}
			return true
		})
		col.Delete(byServer)
		if err := col.InsertMany(docs); err != nil {
			return rep, err
		}
		rep.PathsRetained += len(docs)
	}
	return rep, nil
}

// canonicalPaths renders the paths collection as _id -> canonical JSON, the
// comparison domain of the chaos harness: it erases the int/float64 split a
// journal round trip introduces, and nothing else.
func canonicalPaths(t testing.TB, db *docdb.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	db.Collection(ColPaths).ForEach(docdb.Query{}, func(d docdb.Document) bool {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("path %s: %v", d.ID(), err)
		}
		out[d.ID()] = string(b)
		return true
	})
	return out
}

func diffPaths(got, want map[string]string) string {
	for id, w := range want {
		if g, ok := got[id]; !ok {
			return fmt.Sprintf("document %s missing", id)
		} else if g != w {
			return fmt.Sprintf("document %s differs:\n  got  %s\n  want %s", id, g, w)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			return fmt.Sprintf("document %s is extra", id)
		}
	}
	return ""
}

// faultySuite is suite with lookups to the given destinations failing, the
// same way on every daemon built with the same arguments.
func faultySuite(t testing.TB, seed int64, failing ...int) *Suite {
	t.Helper()
	s := suite(t, seed)
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		t.Fatal(err)
	}
	if len(failing) == 0 {
		return s
	}
	servers, err := Servers(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	down := map[string]bool{}
	for _, id := range failing {
		down[servers[id-1].Address.IA.String()] = true
	}
	s.Daemon.SetFaultHook(func(dst addr.IA, _ int64, _ time.Duration) sciond.Fault {
		if down[dst.String()] {
			return sciond.FaultLookupError
		}
		return sciond.FaultNone
	})
	return s
}

// pathMutations are the ways a history damages the stored documents of one
// destination between two collects. Each is applied to both databases with
// the same random draws and returns whether it changed anything.
var pathMutations = []struct {
	name  string
	apply func(rng *rand.Rand, col *docdb.Collection, serverID int, victim docdb.Document) bool
}{
	{"edit a stored field", func(rng *rand.Rand, col *docdb.Collection, _ int, victim docdb.Document) bool {
		edits := []docdb.Document{
			{FStatus: "edited"}, {FHops: 99}, {FMTU: 1}, {FMinLatency: -1.5}, {FPathIndex: 4242},
			{FSequence: "1-ff00:0:1#1"}, {FFingerprint: "0000000000000000"}, {FISDs: "16"},
			{FHops: 4.5}, {FMTU: "1472"}, {FStatus: 7},
		}
		return col.Update(docdb.Eq("_id", victim.ID()), edits[rng.Intn(len(edits))]) == 1
	}},
	{"wrong isds under a right sequence", func(_ *rand.Rand, col *docdb.Collection, _ int, victim docdb.Document) bool {
		return col.Update(docdb.Eq("_id", victim.ID()), docdb.Document{FISDs: []any{"99"}}) == 1
	}},
	{"an extra field", func(_ *rand.Rand, col *docdb.Collection, _ int, victim docdb.Document) bool {
		return col.Update(docdb.Eq("_id", victim.ID()), docdb.Document{"note": "by hand"}) == 1
	}},
	{"a missing field", func(_ *rand.Rand, col *docdb.Collection, _ int, victim docdb.Document) bool {
		delete(victim, FFingerprint)
		n, err := col.UpsertMany([]docdb.Document{victim})
		return err == nil && n == 1
	}},
	{"a deleted document", func(_ *rand.Rand, col *docdb.Collection, _ int, victim docdb.Document) bool {
		return col.Delete(docdb.Eq("_id", victim.ID())) == 1
	}},
	{"a stale document", func(rng *rand.Rand, col *docdb.Collection, serverID int, _ docdb.Document) bool {
		// TestCollectPathsIdempotentAndCleansStale's case, and ids that only
		// look like live ones.
		ids := []string{PathID(serverID, 999), fmt.Sprintf("%d_007", serverID), fmt.Sprintf("%d_+1", serverID), fmt.Sprintf("%d_x", serverID)}
		return col.Insert(docdb.Document{
			"_id": ids[rng.Intn(len(ids))], FServerID: serverID, FPathIndex: 999, FHops: 99,
			FSequence: "", FISDs: []any{}, FMTU: 0,
		}) == nil
	}},
}

// jsonRoundTrip rewrites one destination's documents the way a journal
// replay would have left them: every number a float64. It is not damage —
// a collect over it must write nothing.
func jsonRoundTrip(t testing.TB, col *docdb.Collection, serverID int) {
	t.Helper()
	docs := col.Find(docdb.Query{Filter: docdb.Eq(FServerID, serverID)})
	for i, d := range docs {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = nil
		if err := json.Unmarshal(raw, &docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := col.UpsertMany(docs); err != nil {
		t.Fatal(err)
	}
}

// TestCollectMatchesUnconditionalReplace drives CollectPaths and the
// unconditional replace it superseded through the same seeded random
// history on two databases — option changes, probing under a congestion
// episode, failing lookups, every kind of damage to the stored documents —
// and demands, after every step, the same paths collection document for
// document and the same report. On the database under test it also checks
// what the no-op rule promises: a collect that rewrote nothing moved
// neither generation and appended nothing.
func TestCollectMatchesUnconditionalReplace(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			failing := []int{3 + rng.Intn(5)}
			got, want := faultySuite(t, seed, failing...), faultySuite(t, seed, failing...)
			// An AS on the way to most destinations drops half of what
			// crosses it for a while: probed statuses flip in and out.
			for _, s := range []*Suite{got, want} {
				if err := s.Daemon.Network().ScheduleEpisode(simnet.Episode{
					IA: topology.ETHZAP, Start: 10 * time.Second, End: 40 * time.Second, DropProb: 0.5,
				}); err != nil {
					t.Fatal(err)
				}
			}
			servers, err := Servers(got.DB)
			if err != nil {
				t.Fatal(err)
			}
			col := got.DB.Collection(ColPaths)
			maxPaths := []int{40, 10, 40}

			opts, prev := CollectOpts{}, CollectOpts{Probe: true} // prev: no expectation on the first step
			noops, repairs := 0, 0
			for step := 0; step < 40; step++ {
				// What this step changes: the options, the weather, the
				// stored documents — or nothing at all.
				damaged := map[int]bool{}
				desc := "nothing"
				switch k := rng.Intn(10); {
				case k == 0:
					opts.MaxPaths = maxPaths[step%len(maxPaths)]
					desc = fmt.Sprintf("MaxPaths=%d", opts.MaxPaths)
				case k == 1:
					opts.HopSlack = 1 + rng.Intn(3)
					desc = fmt.Sprintf("HopSlack=%d", opts.HopSlack)
				case k == 2:
					opts.Probe = !opts.Probe
					desc = fmt.Sprintf("Probe=%t", opts.Probe)
				case k == 3:
					for _, s := range []*Suite{got, want} {
						s.Daemon.Network().Advance(7 * time.Second)
					}
					desc = "7s pass"
				case k == 4:
					srv := servers[rng.Intn(len(servers))]
					jsonRoundTrip(t, col, srv.ID)
					jsonRoundTrip(t, want.DB.Collection(ColPaths), srv.ID)
					desc = fmt.Sprintf("server %d through JSON", srv.ID)
				case k <= 7:
					for n := 1 + rng.Intn(3); n > 0; n-- {
						srv := servers[rng.Intn(len(servers))]
						stored := col.Find(docdb.Query{Filter: docdb.Eq(FServerID, srv.ID), SortBy: FPathIndex})
						if len(stored) == 0 {
							continue
						}
						m := pathMutations[rng.Intn(len(pathMutations))]
						id := stored[rng.Intn(len(stored))].ID()
						desc = fmt.Sprintf("%s on %s", m.name, id)
						mseed := rng.Int63()
						for _, c := range []*docdb.Collection{col, want.DB.Collection(ColPaths)} {
							if m.apply(rand.New(rand.NewSource(mseed)), c, srv.ID, c.Get(id)) {
								damaged[srv.ID] = true
							}
						}
					}
				}
				if d := diffPaths(canonicalPaths(t, got.DB), canonicalPaths(t, want.DB)); d != "" {
					t.Fatalf("step %d (%s): the two databases differ before the collect: %s", step, desc, d)
				}

				cursor, gen, rewriteGen := col.ForEachSince(0, func(docdb.Document) {})
				rep, err := CollectPaths(context.Background(), got.DB, got.Daemon, opts)
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, desc, err)
				}
				wantRep, err := collectPathsOracle(want.DB, want.Daemon, opts)
				if err != nil {
					t.Fatalf("step %d (%s): oracle: %v", step, desc, err)
				}
				if d := diffPaths(canonicalPaths(t, got.DB), canonicalPaths(t, want.DB)); d != "" {
					t.Fatalf("step %d (%s): after the collect: %s", step, desc, d)
				}
				rewritten := rep.Rewritten
				rep.Rewritten = 0
				if fmt.Sprint(rep) != fmt.Sprint(wantRep) {
					t.Fatalf("step %d (%s): report %+v, the unconditional replace reports %+v", step, desc, rep, wantRep)
				}
				if len(rep.Errors) != len(failing) || rep.Errors[failing[0]] == nil {
					t.Fatalf("step %d: lookup errors %v, want one for server %d", step, rep.Errors, failing[0])
				}

				// The same options over the same unprobed world: exactly the
				// damaged destinations are rewritten (the failing one is not
				// looked at), and nothing else is written.
				if opts == prev && !opts.Probe {
					delete(damaged, failing[0])
					if rewritten != len(damaged) {
						t.Fatalf("step %d (%s): %d destinations rewritten, %d were damaged", step, desc, rewritten, len(damaged))
					}
				}
				streamed := 0
				next, gen2, rewriteGen2 := col.ForEachSince(cursor, func(docdb.Document) { streamed++ })
				if rewritten == 0 && (gen2 != gen || rewriteGen2 != rewriteGen || streamed != 0 || next != cursor) {
					t.Fatalf("step %d (%s): nothing rewritten, yet generation %d->%d, rewrite generation %d->%d, %d documents appended",
						step, desc, gen, gen2, rewriteGen, rewriteGen2, streamed)
				}
				if rewritten > 0 && gen2 == gen {
					t.Fatalf("step %d (%s): %d destinations rewritten under an unmoved generation", step, desc, rewritten)
				}
				prev = opts
				if rewritten == 0 {
					noops++
				} else if len(damaged) > 0 {
					repairs++
				}
			}
			if noops < 3 || repairs < 3 {
				t.Errorf("history too thin to mean anything: %d no-op collects, %d repairs", noops, repairs)
			}
		})
	}
}

// TestCollectComparesEveryField holds pathDocument and the compare
// together: changing any one field pathDocument writes, to another value of
// the same type, makes the next collect rewrite that destination and
// nothing else.
func TestCollectComparesEveryField(t *testing.T) {
	s := faultySuite(t, 21)
	ctx := context.Background()
	if _, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	col := s.DB.Collection(ColPaths)
	clean := canonicalPaths(t, s.DB)
	victim := col.Get(PathID(2, 1))
	if victim == nil || len(victim) != pathDocumentFields {
		t.Fatalf("stored document %v, want the %d fields pathDocument writes", victim, pathDocumentFields)
	}
	for field, v := range victim {
		if field == "_id" || field == FServerID {
			continue // another _id is another document; server_id: below
		}
		var other any
		switch tv := v.(type) {
		case int:
			other = tv + 1
		case float64:
			other = tv + 0.25
		case string:
			other = tv + "x"
		case []any:
			other = append([]any{"0"}, tv...)
		default:
			t.Fatalf("field %s holds a %T the test cannot vary", field, v)
		}
		if n := col.Update(docdb.Eq("_id", victim.ID()), docdb.Document{field: other}); n != 1 {
			t.Fatalf("field %s: updated %d documents", field, n)
		}
		rep, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rewritten != 1 || rep.PathsDeleted != 0 {
			t.Errorf("field %s changed: %d destinations rewritten, %d paths deleted, want 1 and 0", field, rep.Rewritten, rep.PathsDeleted)
		}
		if d := diffPaths(canonicalPaths(t, s.DB), clean); d != "" {
			t.Errorf("field %s changed: not repaired: %s", field, d)
		}
	}

	// A changed server_id files the document under another destination,
	// where its own destination's delete does not reach it: the rewrite
	// trips over the _id, and says so instead of going on without paths.
	col.Update(docdb.Eq("_id", victim.ID()), docdb.Document{FServerID: 3})
	if _, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{}); !errors.Is(err, docdb.ErrDuplicateID) {
		t.Errorf("collect over a document filed under another destination returned %v, want %v", err, docdb.ErrDuplicateID)
	}
}

// TestCollectNoOpStreamsOnlyWhatChanged is the write-side contract the
// selection snapshot and the response caches build on: a collect over an
// unchanged world moves neither generation of the paths collection and
// appends nothing; a collect after one destination changed appends exactly
// that destination's documents.
func TestCollectNoOpStreamsOnlyWhatChanged(t *testing.T) {
	s := faultySuite(t, 22)
	ctx := context.Background()
	first, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Rewritten != first.ServersQueried {
		t.Fatalf("cold collect rewrote %d of %d destinations", first.Rewritten, first.ServersQueried)
	}
	col := s.DB.Collection(ColPaths)
	cursor, gen, rewriteGen := col.ForEachSince(0, func(docdb.Document) {})

	rep, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{})
	if err != nil {
		t.Fatal(err)
	}
	first.Rewritten = 0
	if !reflect.DeepEqual(rep, first) {
		t.Errorf("repeat collect reports %+v, cold collect (nothing rewritten) %+v", rep, first)
	}
	next, gen2, rewriteGen2 := col.ForEachSince(cursor, func(d docdb.Document) {
		t.Errorf("repeat collect over an unchanged world appended %s", d.ID())
	})
	if next != cursor || gen2 != gen || rewriteGen2 != rewriteGen {
		t.Errorf("repeat collect moved cursor %d->%d, generation %d->%d, rewrite generation %d->%d",
			cursor, next, gen, gen2, rewriteGen, rewriteGen2)
	}

	const changed = 5
	want := col.ForEach(docdb.Query{Filter: docdb.Eq(FServerID, changed)}, func(docdb.Document) bool { return true })
	if n := col.Update(docdb.Eq("_id", PathID(changed, 0)), docdb.Document{FStatus: "edited"}); n != 1 {
		t.Fatalf("updated %d documents", n)
	}
	if rep, err = CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{}); err != nil || rep.Rewritten != 1 {
		t.Fatalf("collect after one destination changed: %d rewritten, err %v", rep.Rewritten, err)
	}
	streamed := 0
	col.ForEachSince(cursor, func(d docdb.Document) {
		streamed++
		if id, _ := asInt(d[FServerID]); id != changed {
			t.Errorf("collect after server %d changed appended %s", changed, d.ID())
		}
	})
	if streamed != want || want == 0 {
		t.Errorf("collect after server %d changed appended %d documents, the destination has %d", changed, streamed, want)
	}
}

// TestCollectReaderNeverSeesPartialDestination: while an unchanged world is
// re-collected over and over, a reader of one destination's stored paths
// always gets all of them — there is no window between a delete and an
// insert, because neither happens.
func TestCollectReaderNeverSeesPartialDestination(t *testing.T) {
	s := faultySuite(t, 23)
	ctx := context.Background()
	if _, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{}); err != nil {
		t.Fatal(err)
	}
	const dest = 4
	full, err := PathsForServer(s.DB, dest)
	if err != nil || len(full) == 0 {
		t.Fatalf("server %d: %d stored paths, err %v", dest, len(full), err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var polls int
	var short error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := PathsForServer(s.DB, dest)
			polls++
			if (err != nil || len(got) != len(full)) && short == nil {
				short = fmt.Errorf("poll %d: %d of %d paths, err %v", polls, len(got), len(full), err)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if rep, err := CollectPaths(ctx, s.DB, s.Daemon, CollectOpts{}); err != nil || rep.Rewritten != 0 {
			t.Fatalf("re-collect %d: %d rewritten, err %v", i, rep.Rewritten, err)
		}
	}
	close(stop)
	wg.Wait()
	if short != nil {
		t.Errorf("a reader saw a partial destination during a no-op re-collect: %v", short)
	}
	if polls == 0 {
		t.Error("the reader never ran")
	}
}
