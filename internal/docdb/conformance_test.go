package docdb

// The persistence conformance suite: the contract the segment log keeps,
// checked against an in-memory oracle running the same operation scripts —
// replay equivalence, the reopen type contract, flush visibility, crash and
// torn-tail recovery, failpoint semantics, generation counters, compaction
// and concurrent commit. Each Test* runs its persistent side as a "segment"
// subtest, named for the on-disk format under test.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// onSegment runs fn as the "segment" subtest with a fresh database path
// that does not exist yet (Open creates the directory).
func onSegment(t *testing.T, fn func(t *testing.T, path string)) {
	t.Helper()
	t.Run("segment", func(t *testing.T) {
		fn(t, filepath.Join(t.TempDir(), "db"))
	})
}

// mustOpenPath opens the persistent database at path.
func mustOpenPath(t testing.TB, path string, extra ...Option) *DB {
	t.Helper()
	db, err := Open(append([]Option{WithPath(path)}, extra...)...)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return db
}

// snapshotJSON renders the database as collection -> id -> canonical JSON.
// JSON is the comparison domain on purpose: replay turns int into int64
// while the in-memory oracle holds int, and canonical encoding (sorted
// keys, int 7 and int64 7 both rendering "7") erases exactly that
// representational difference and nothing else. TestConformanceReopenTypes pins the types
// themselves.
func snapshotJSON(t testing.TB, db *DB) map[string]map[string]string {
	t.Helper()
	out := make(map[string]map[string]string)
	for _, name := range db.CollectionNames() {
		docs := db.Collection(name).Find(Query{})
		if len(docs) == 0 {
			continue
		}
		m := make(map[string]string, len(docs))
		for _, d := range docs {
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatalf("marshal %s/%s: %v", name, d.ID(), err)
			}
			m[d.ID()] = string(b)
		}
		out[name] = m
	}
	return out
}

// diffJSONSnapshots fails the test at the first difference.
func diffJSONSnapshots(t testing.TB, got, want map[string]map[string]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("collection %s: %d documents, want %d", name, len(g), len(w))
		}
		for id, wdoc := range w {
			if g[id] != wdoc {
				t.Fatalf("collection %s doc %s:\n  got  %s\n  want %s", name, id, g[id], wdoc)
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Fatalf("collection %s present, want absent", name)
		}
	}
}

// conformanceScript applies a fixed mixed-operation workload: batch inserts
// with every value shape the measurement layer stores (and a few it
// doesn't), upserts, updates, deletes, a dropped collection and a
// re-created one.
func conformanceScript(t testing.TB, db *DB) {
	t.Helper()
	stats := db.Collection("stats")
	if err := stats.InsertMany([]Document{
		{"_id": "s1", "hops": 6, "latency": 12.5, "alive": true, "note": nil},
		{"_id": "s2", "hops": 7, "latency": 9.25, "alive": false,
			"tags": []string{"up", "ipv4"}, "mixed": []any{1, "two", 3.5, nil}},
		{"_id": "s3", "nested": Document{"as": "17-ffaa:1:1", "ifaces": []any{1, 2}},
			"big": int64(1) << 40, "neg": -42},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := stats.UpsertMany([]Document{
		{"_id": "s2", "hops": 8, "latency": 9.0},
		{"_id": "s4", "hops": 5},
	}); err != nil {
		t.Fatal(err)
	}
	if n := stats.Update(Eq("_id", "s1"), Document{"latency": 13.0}); n != 1 {
		t.Fatalf("update matched %d, want 1", n)
	}
	if n := stats.Delete(Eq("_id", "s3")); n != 1 {
		t.Fatalf("delete matched %d, want 1", n)
	}

	tmp := db.Collection("scratch")
	if err := tmp.Insert(Document{"_id": "t1", "x": 1}); err != nil {
		t.Fatal(err)
	}
	db.Drop("scratch")

	prog := db.Collection("progress")
	if err := prog.Insert(Document{"_id": "p1", "done": 3, "of": 10}); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceReplayEquivalence: after a mixed workload, close + reopen
// must reconstruct exactly the state an in-memory database reaches from the
// same script, and a second reopen must be a fixed point.
func TestConformanceReplayEquivalence(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		oracle := MustOpen()
		conformanceScript(t, oracle)
		want := snapshotJSON(t, oracle)

		db := mustOpenPath(t, path)
		conformanceScript(t, db)
		diffJSONSnapshots(t, snapshotJSON(t, db), want)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 2; round++ {
			db := mustOpenPath(t, path)
			diffJSONSnapshots(t, snapshotJSON(t, db), want)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// reopenPoint is a named struct with no codec tag of its own: it is stored
// through the JSON fallback.
type reopenPoint struct {
	X int     `json:"x"`
	Y float64 `json:"y"`
}

// TestConformanceReopenTypes pins what a close-and-reopen returns for each
// kind of value the engine stores: int widens to int64; int64, float64
// (whole-valued ones too), string, bool, nil and []string come back as
// themselves; lists and nested documents come back with their elements
// under the same rules, a map[string]any as a Document; and any other type
// comes back as its JSON decoded — numbers as float64, objects as
// Documents.
func TestConformanceReopenTypes(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		in := Document{
			"_id":     "types",
			"int":     7,
			"int64":   int64(-1) << 40,
			"float":   2.5,
			"whole":   7.0,
			"string":  "17-ffaa:1:1 → up",
			"bool":    true,
			"nil":     nil,
			"list":    []any{1, "two", 3.0, nil, []any{int64(4)}},
			"strings": []string{"up", ""},
			"doc":     Document{"hops": 6, "inner": Document{"ok": false}},
			"map":     map[string]any{"k": "v", "n": 2},
			"json":    reopenPoint{X: 3, Y: 1.5},
		}
		want := Document{
			"_id":     "types",
			"int":     int64(7),
			"int64":   int64(-1) << 40,
			"float":   2.5,
			"whole":   7.0,
			"string":  "17-ffaa:1:1 → up",
			"bool":    true,
			"nil":     nil,
			"list":    []any{int64(1), "two", 3.0, nil, []any{int64(4)}},
			"strings": []string{"up", ""},
			"doc":     Document{"hops": int64(6), "inner": Document{"ok": false}},
			"map":     Document{"k": "v", "n": int64(2)},
			"json":    Document{"x": 3.0, "y": 1.5},
		}
		db := mustOpenPath(t, path)
		if err := db.Collection("stats").Insert(in); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := mustOpenPath(t, path)
		defer db2.Close()
		got := db2.Collection("stats").Get("types")
		for k, w := range want {
			if !reflect.DeepEqual(got[k], w) {
				t.Errorf("field %q: reopened as %#v, want %#v", k, got[k], w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("reopened document has %d fields, want %d: %#v", len(got), len(want), got)
		}
	})
}

// TestConformanceFlush: a flushed write is on disk before Close — a second
// database opened on the same path while the first is still open sees it.
// This is the measurement runner's per-batch durability point.
func TestConformanceFlush(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		defer db.Close()
		if err := db.Collection("paths").Insert(Document{"_id": "a"}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		reader := mustOpenPath(t, path)
		defer reader.Close()
		if reader.Collection("paths").Get("a") == nil {
			t.Error("flushed document not visible before Close")
		}
	})
}

// damageTail simulates a crash's partial final write: bytes of a record
// that never finished reaching the log.
func damageTail(t *testing.T, path string) {
	t.Helper()
	names, err := shardFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no shard file to damage")
	}
	f, err := os.OpenFile(filepath.Join(path, names[0]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header whose payload never arrived, then some of its bytes.
	if _, err := f.Write([]byte(`{"op":"insert","c":"stats","doc":{"_id":"torn`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceTornTailRecovery: a physically torn tail is dropped on
// replay, the damage is cut off the file, and appends after recovery never
// merge into damaged bytes: a second reopen still sees everything.
func TestConformanceTornTailRecovery(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		if err := db.Collection("stats").InsertMany([]Document{
			{"_id": "a", "v": 1}, {"_id": "b", "v": 2},
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		damageTail(t, path)

		db2 := mustOpenPath(t, path)
		if n := db2.Collection("stats").Count(); n != 2 {
			t.Fatalf("after torn-tail reopen: %d docs, want 2", n)
		}
		// Write after recovery, then prove a third replay sees old + new.
		if err := db2.Collection("stats").Insert(Document{"_id": "c", "v": 3}); err != nil {
			t.Fatal(err)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		db3 := mustOpenPath(t, path)
		defer db3.Close()
		for _, id := range []string{"a", "b", "c"} {
			if db3.Collection("stats").Get(id) == nil {
				t.Fatalf("doc %s lost after write-past-torn-tail reopen", id)
			}
		}
	})
}

// stopAfterFailpoint stops replay after n records and rejects nothing else.
type stopAfterFailpoint struct{ n int }

func (s *stopAfterFailpoint) BeforeWrite(string, string, int) error { return nil }
func (s *stopAfterFailpoint) ReplayEntry(n int, _ string) bool      { return n < s.n }

// logBytes measures the persisted log: the sum of its shard sizes.
func logBytes(t testing.TB, path string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestConformanceFailpointReplayStop: an injected replay stop yields exactly
// the stopped-at prefix of the log and leaves the files untouched, so the
// next (un-injected) open still sees everything — the chaos harness's crash
// model depends on both halves.
func TestConformanceFailpointReplayStop(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		col := db.Collection("stats")
		for i := 0; i < 6; i++ {
			if err := col.Insert(Document{"_id": fmt.Sprintf("d%d", i), "i": i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		before := logBytes(t, path)

		db2 := mustOpenPath(t, path, WithFailpoint(&stopAfterFailpoint{n: 4}))
		if n := db2.Collection("stats").Count(); n != 4 {
			t.Fatalf("stopped replay applied %d docs, want 4", n)
		}
		_ = db2 // abandoned without Close, like a crashed process
		if after := logBytes(t, path); after != before {
			t.Fatalf("injected stop changed the log: %d -> %d bytes", before, after)
		}

		db3 := mustOpenPath(t, path)
		defer db3.Close()
		if n := db3.Collection("stats").Count(); n != 6 {
			t.Fatalf("after injected stop, clean reopen has %d docs, want 6", n)
		}
	})
}

// TestConformanceGenerationCounters: replay drives the same generation
// machinery as live writes — inserts bump the generation, replayed deletes
// are destructive (rewrite generation advances), and generations keep
// moving after reopen.
func TestConformanceGenerationCounters(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		col := db.Collection("stats")
		if err := col.InsertMany([]Document{{"_id": "a"}, {"_id": "b"}}); err != nil {
			t.Fatal(err)
		}
		if n := col.Delete(Eq("_id", "a")); n != 1 {
			t.Fatal("delete missed")
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2 := mustOpenPath(t, path)
		defer db2.Close()
		col2 := db2.Collection("stats")
		gen, rew := col2.Generation(), col2.RewriteGeneration()
		if gen == 0 {
			t.Fatal("replayed collection has zero generation")
		}
		if rew == 0 {
			t.Fatal("replayed delete did not advance the rewrite generation")
		}
		if err := col2.Insert(Document{"_id": "c"}); err != nil {
			t.Fatal(err)
		}
		if col2.Generation() <= gen {
			t.Fatalf("generation stuck after replay: %d -> %d", gen, col2.Generation())
		}
		if col2.RewriteGeneration() != rew {
			t.Fatal("plain insert advanced the rewrite generation")
		}
	})
}

// TestConformanceCompact: compaction shrinks the log, preserves the exact
// state across reopen, and a dropped collection stays gone afterwards.
func TestConformanceCompact(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		col := db.Collection("stats")
		for round := 0; round < 20; round++ {
			if _, err := col.UpsertMany([]Document{
				{"_id": "hot", "round": round, "pad": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Collection("gone").Insert(Document{"_id": "g1"}); err != nil {
			t.Fatal(err)
		}
		db.Drop("gone")
		want := snapshotJSON(t, db)

		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		before := logBytes(t, path)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		after := logBytes(t, path)
		if after >= before {
			t.Fatalf("compact did not shrink the log: %d -> %d bytes", before, after)
		}
		diffJSONSnapshots(t, snapshotJSON(t, db), want)
		// The log must stay appendable after the swap.
		if err := col.Insert(Document{"_id": "post", "v": 1}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2 := mustOpenPath(t, path)
		defer db2.Close()
		if db2.Collection("stats").Get("post") == nil {
			t.Fatal("post-compact insert lost")
		}
		for _, name := range db2.CollectionNames() {
			if name == "gone" {
				t.Fatal("dropped collection resurrected by compaction")
			}
		}
		if got := db2.Collection("stats").Get("hot"); got == nil || got["round"] != int64(19) {
			t.Fatalf("hot doc after compact+reopen: %v", got)
		}
	})
}

// failNthWrite fails the nth BeforeWrite call with an injected error.
type failNthWrite struct {
	mu    sync.Mutex
	calls int
	fail  int
}

func (f *failNthWrite) BeforeWrite(string, string, int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls == f.fail {
		return fmt.Errorf("injected write fault")
	}
	return nil
}
func (f *failNthWrite) ReplayEntry(int, string) bool { return true }

// TestConformanceWriteFaultAtomicity: a batch aborted by BeforeWrite leaves
// no trace — not in memory, and not in the log either (the reopen check).
func TestConformanceWriteFaultAtomicity(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path, WithFailpoint(&failNthWrite{fail: 2}))
		col := db.Collection("stats")
		if err := col.InsertMany([]Document{{"_id": "ok1"}, {"_id": "ok2"}}); err != nil {
			t.Fatal(err)
		}
		if err := col.InsertMany([]Document{{"_id": "bad1"}, {"_id": "bad2"}}); err == nil {
			t.Fatal("injected write fault did not surface")
		}
		if err := col.Insert(Document{"_id": "ok3"}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2 := mustOpenPath(t, path)
		defer db2.Close()
		col2 := db2.Collection("stats")
		if n := col2.Count(); n != 3 {
			t.Fatalf("replayed %d docs, want 3", n)
		}
		if col2.Get("bad1") != nil || col2.Get("bad2") != nil {
			t.Fatal("aborted batch leaked into the log")
		}
	})
}

// TestConformanceGroupCommitConcurrent: many writers on many collections
// under SyncGroupCommit — every committed batch must be in the log, and the
// group committer must not deadlock or drop commits under contention.
func TestConformanceGroupCommitConcurrent(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path, WithSyncPolicy(SyncGroupCommit))
		const writers, perWriter = 4, 8
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				col := db.Collection(fmt.Sprintf("col%d", w%2))
				for i := 0; i < perWriter; i++ {
					if err := col.Insert(Document{"_id": fmt.Sprintf("w%d-%d", w, i), "i": i}); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Every Insert returned after its group-commit round: the records are
		// durable now, with no Flush or Close — reopen the abandoned log.
		db2 := mustOpenPath(t, path)
		defer db2.Close()
		total := 0
		for _, name := range db2.CollectionNames() {
			total += db2.Collection(name).Count()
		}
		if total != writers*perWriter {
			t.Fatalf("group-committed %d docs, replayed %d", writers*perWriter, total)
		}
	})
}

// TestConformanceRandomizedOracle drives a seeded random mutation stream
// against a persistent database and an in-memory oracle in lockstep,
// reopening the persistent side at random points; the canonical-JSON
// snapshots must agree after every reopen and at the end.
func TestConformanceRandomizedOracle(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		for _, seed := range []int64{1, 7, 23} {
			rng := rand.New(rand.NewSource(seed))
			oracle := MustOpen()
			db := mustOpenPath(t, path+fmt.Sprint(seed))

			names := []string{"alpha", "beta", "gamma"}
			apply := func(op func(*DB)) { op(oracle); op(db) }
			for step := 0; step < 120; step++ {
				name := names[rng.Intn(len(names))]
				id := fmt.Sprintf("d%d", rng.Intn(30))
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert-or-replace
					doc := Document{"_id": id, "step": step, "v": rng.Float64()}
					apply(func(d *DB) {
						if _, err := d.Collection(name).UpsertMany([]Document{doc}); err != nil {
							t.Fatal(err)
						}
					})
				case 4, 5: // fresh insert (dup errors must agree)
					doc := Document{"_id": id, "fresh": step}
					var errs [2]error
					i := 0
					apply(func(d *DB) {
						errs[i] = d.Collection(name).Insert(doc)
						i++
					})
					if (errs[0] == nil) != (errs[1] == nil) {
						t.Fatalf("seed %d step %d: insert errs diverge: %v vs %v", seed, step, errs[0], errs[1])
					}
				case 6: // update
					apply(func(d *DB) {
						d.Collection(name).Update(Eq("_id", id), Document{"upd": step})
					})
				case 7: // delete
					apply(func(d *DB) { d.Collection(name).Delete(Eq("_id", id)) })
				case 8: // drop
					if rng.Intn(4) == 0 {
						apply(func(d *DB) { d.Drop(name) })
					}
				case 9: // crash-free restart of the persistent side
					if err := db.Close(); err != nil {
						t.Fatalf("seed %d step %d: close: %v", seed, step, err)
					}
					db = mustOpenPath(t, path+fmt.Sprint(seed))
					diffJSONSnapshots(t, snapshotJSON(t, db), snapshotJSON(t, oracle))
				}
			}
			diffJSONSnapshots(t, snapshotJSON(t, db), snapshotJSON(t, oracle))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// storedOrder lists every collection's ids in storage order — the order an
// unsorted, unfiltered Find returns.
func storedOrder(db *DB) map[string][]string {
	out := make(map[string][]string)
	for _, name := range db.CollectionNames() {
		out[name] = idsOf(db.Collection(name).Find(Query{}))
	}
	return out
}

// mustMatchLive fails unless got holds the same documents as the live
// database did, in the same storage order, with the same counts.
func mustMatchLive(t *testing.T, got *DB, wantDocs map[string]map[string]string, wantOrder map[string][]string) {
	t.Helper()
	diffJSONSnapshots(t, snapshotJSON(t, got), wantDocs)
	for name, want := range wantOrder {
		col := got.Collection(name)
		if col.Count() != len(want) {
			t.Fatalf("collection %s: Count %d, live had %d", name, col.Count(), len(want))
		}
		mustEqualIDs(t, "collection "+name+" storage order", idsOf(col.Find(Query{})), want)
	}
}

// TestConformanceDeleteCompactReopen: deletes through an index leave
// tombstones in memory; neither the snapshot Compact writes nor the log a
// reopen replays may show them — same documents, same storage order, same
// Count, before and after a further round of mutations.
func TestConformanceDeleteCompactReopen(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		col := db.Collection("paths")
		col.EnsureIndex("server_id")
		const n, groups = 600, 20
		docs := make([]Document, n)
		for i := range docs {
			docs[i] = Document{"_id": fmt.Sprintf("%d_%d", i%groups, i/groups), "server_id": i % groups, "i": i}
		}
		if err := col.InsertMany(docs); err != nil {
			t.Fatal(err)
		}
		// Interior deletes (tombstones stay), then the re-insert of one
		// deleted group at the tail, as a repeat collect does.
		for _, g := range []int{3, 4, 11} {
			if got := col.Delete(Eq("server_id", g)); got != n/groups {
				t.Fatalf("delete of group %d removed %d, want %d", g, got, n/groups)
			}
		}
		if err := col.InsertMany(docs[4:5]); err != nil {
			t.Fatal(err)
		}
		if col.dead == 0 {
			t.Fatal("deletes left no tombstone: the test no longer covers them")
		}
		wantDocs, wantOrder := snapshotJSON(t, db), storedOrder(db)
		if len(wantOrder["paths"]) != n-3*n/groups+1 {
			t.Fatalf("live collection holds %d documents", len(wantOrder["paths"]))
		}

		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		mustMatchLive(t, db, wantDocs, wantOrder)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := mustOpenPath(t, path)
		mustMatchLive(t, db2, wantDocs, wantOrder)

		// The reopened database keeps going: a delete that squeezes, logged
		// after the snapshot, replays to the same state again.
		col2 := db2.Collection("paths")
		col2.EnsureIndex("server_id")
		col2.Delete(Lt("server_id", 15))
		wantDocs, wantOrder = snapshotJSON(t, db2), storedOrder(db2)
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		db3 := mustOpenPath(t, path)
		defer db3.Close()
		mustMatchLive(t, db3, wantDocs, wantOrder)
	})
}

// TestConformanceReplayManyDeletes replays a log shaped like a repeat paths
// collection — every destination's documents deleted and written again,
// over 20 000 delete records — and the result must equal the live
// database's. Replay removes through the same tombstone routine as Delete;
// when it rebuilt the id map per deleted document this log took 25 s to
// open.
func TestConformanceReplayManyDeletes(t *testing.T) {
	onSegment(t, func(t *testing.T, path string) {
		db := mustOpenPath(t, path)
		col := db.Collection("paths")
		col.EnsureIndex("server_id")
		const groups, per = 700, 30 // 21 000 documents
		batch := func(g, round int) []Document {
			docs := make([]Document, per)
			for i := range docs {
				docs[i] = Document{"_id": fmt.Sprintf("%d_%d", g, i), "server_id": g, "round": round}
			}
			return docs
		}
		for g := 0; g < groups; g++ {
			if err := col.InsertMany(batch(g, 0)); err != nil {
				t.Fatal(err)
			}
		}
		deleted := 0
		for g := 0; g < groups; g++ {
			deleted += col.Delete(Eq("server_id", g))
			if g%7 == 0 {
				continue // a destination that lost its paths
			}
			if err := col.InsertMany(batch(g, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if deleted < 20000 {
			t.Fatalf("log holds %d delete records, want at least 20000", deleted)
		}
		wantDocs, wantOrder := snapshotJSON(t, db), storedOrder(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := mustOpenPath(t, path)
		defer db2.Close()
		mustMatchLive(t, db2, wantDocs, wantOrder)
	})
}

// since collects what ForEachSince streams from pos.
func since(col *Collection, pos int) (ids []string, next int, gen, rw int64) {
	next, gen, rw = col.ForEachSince(pos, func(d Document) { ids = append(ids, d.ID()) })
	return ids, next, gen, rw
}

// TestConformanceCursor pins the arrival cursor (cursor.go ForEachSince) on
// the in-memory store and on the segment log: positions are stable across
// appends, so a cursor taken after one batch streams exactly the next ones;
// every operation that rewrites or removes a stored document — Update,
// upsert replacement, Delete with and without a squeeze — moves
// RewriteGeneration, which is how a consumer learns its position is void;
// and after Compact and a reopen a cursor from 0 streams the live documents
// in storage order.
func TestConformanceCursor(t *testing.T) {
	run := func(t *testing.T, db *DB, reopen func() *DB) {
		col := db.Collection("stats")
		batch := func(from, n int) []Document {
			docs := make([]Document, n)
			for i := range docs {
				docs[i] = Document{"_id": fmt.Sprintf("d%03d", from+i), "v": from + i}
			}
			return docs
		}
		stored := func() []string { return idsOf(col.Find(Query{})) }
		if err := col.InsertMany(batch(0, 10)); err != nil {
			t.Fatal(err)
		}
		ids, next, gen, rw := since(col, 0)
		mustEqualIDs(t, "cursor from 0", ids, stored())
		if next != 10 || gen != col.Generation() || rw != col.RewriteGeneration() {
			t.Fatalf("cursor from 0: next %d gen %d rw %d; collection at %d/%d",
				next, gen, rw, col.Generation(), col.RewriteGeneration())
		}

		// Appends (insert, and an upsert of unknown ids) keep positions.
		if err := col.InsertMany(batch(10, 5)); err != nil {
			t.Fatal(err)
		}
		if n, err := col.UpsertMany(batch(15, 2)); err != nil || n != 0 {
			t.Fatalf("appending upsert replaced %d, err %v", n, err)
		}
		ids, next2, gen2, rw2 := since(col, next)
		mustEqualIDs(t, "tail after appends", ids, idsOf(batch(10, 7)))
		if next2 != 17 || rw2 != rw || gen2 <= gen {
			t.Fatalf("after appends: next %d, rewrite generation %d -> %d, generation %d -> %d", next2, rw, rw2, gen, gen2)
		}
		if ids, again, _, _ := since(col, next2); len(ids) != 0 || again != next2 {
			t.Fatalf("cursor at the end streamed %v and moved to %d", ids, again)
		}

		// Every rewrite moves RewriteGeneration; a cursor from 0 then streams
		// the live documents in storage order.
		rewrites := []struct {
			name string
			dead int // tombstones the collection holds afterwards
			do   func() int
		}{
			{"update", 0, func() int { return col.Update(Eq("_id", "d003"), Document{"v": -3}) }},
			{"upsert replacement", 0, func() int {
				n, err := col.UpsertMany([]Document{{"_id": "d004", "v": -4}, {"_id": "d100", "v": 100}})
				if err != nil {
					t.Fatal(err)
				}
				return n
			}},
			{"interior delete (tombstone stays)", 1, func() int { return col.Delete(Eq("_id", "d005")) }},
			{"delete that squeezes", 0, func() int { return col.Delete(Lt("v", 12)) }},
		}
		for _, step := range rewrites {
			_, _, _, before := since(col, 0)
			if step.do() == 0 {
				t.Fatalf("%s matched nothing", step.name)
			}
			ids, next, gen, after := since(col, 0)
			if after == before || after != col.RewriteGeneration() || gen != col.Generation() {
				t.Fatalf("%s: rewrite generation %d -> %d (collection %d)", step.name, before, after, col.RewriteGeneration())
			}
			mustEqualIDs(t, step.name+": cursor from 0", ids, stored())
			if col.dead != step.dead || next != col.Count()+step.dead {
				t.Fatalf("%s: %d tombstones (want %d), next %d over %d documents", step.name, col.dead, step.dead, next, col.Count())
			}
			if ids, end, _, _ := since(col, next+100); len(ids) != 0 || end != next {
				t.Fatalf("%s: cursor beyond the end streamed %v, next %d", step.name, ids, end)
			}
		}

		if reopen == nil {
			return
		}
		col.Delete(Eq("_id", "d013")) // reopen with a tombstone on file
		want := stored()
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := reopen()
		defer db2.Close()
		col = db2.Collection("stats")
		ids, next, _, _ = since(col, 0)
		mustEqualIDs(t, "after Compact and reopen", ids, want)
		if next != len(want) {
			t.Fatalf("after Compact and reopen: next %d over %d documents", next, len(want))
		}
	}
	t.Run("memory", func(t *testing.T) { run(t, MustOpen(), nil) })
	onSegment(t, func(t *testing.T, path string) {
		run(t, mustOpenPath(t, path), func() *DB { return mustOpenPath(t, path) })
	})
}
