package docdb

// The backend conformance suite: every Backend implementation must pass
// every check here against the same operation scripts. Each Test* function
// below runs once per entry in conformanceBackends, so adding a backend to
// that slice (and to openBackend) is all it takes to put it under the full
// contract — replay equivalence against an in-memory oracle, crash and
// torn-tail recovery, failpoint semantics, generation counters, compaction
// and concurrent commit.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var conformanceBackends = []string{BackendJSONL, BackendSegment}

// conformancePath returns a fresh persistence path appropriate for the
// backend (file for jsonl, directory for segment — created lazily by Open).
func conformancePath(t testing.TB, backend string) string {
	t.Helper()
	if backend == BackendSegment {
		return filepath.Join(t.TempDir(), "db.seg")
	}
	return filepath.Join(t.TempDir(), "db.jsonl")
}

// forEachBackend runs fn as one subtest per backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, backend, path string)) {
	t.Helper()
	for _, backend := range conformanceBackends {
		t.Run(backend, func(t *testing.T) {
			fn(t, backend, conformancePath(t, backend))
		})
	}
}

// mustOpenBackend opens a persistent database on the backend under test.
func mustOpenBackend(t testing.TB, backend, path string, extra ...Option) *DB {
	t.Helper()
	db, err := Open(append([]Option{WithPath(path), WithBackend(backend)}, extra...)...)
	if err != nil {
		t.Fatalf("open %s %s: %v", backend, path, err)
	}
	return db
}

// snapshotJSON renders the database as collection -> id -> canonical JSON.
// JSON is the comparison domain on purpose: replay turns ints into float64
// (jsonl) or int64 (segment) while the in-memory oracle holds int, and
// canonical encoding (sorted keys, 7 and 7.0 both rendering "7") erases
// exactly that representational difference and nothing else.
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		oracle := MustOpen()
		conformanceScript(t, oracle)
		want := snapshotJSON(t, oracle)

		db := mustOpenBackend(t, backend, path)
		conformanceScript(t, db)
		diffJSONSnapshots(t, snapshotJSON(t, db), want)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 2; round++ {
			db, err := Open(WithPath(path), WithBackend(backend))
			if err != nil {
				t.Fatalf("reopen %d: %v", round, err)
			}
			diffJSONSnapshots(t, snapshotJSON(t, db), want)
			if db.Backend() != backend {
				t.Fatalf("backend %q, want %q", db.Backend(), backend)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}

		// Auto-detection must resolve the existing on-disk state to the same
		// backend without being told.
		db2, err := Open(WithPath(path))
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if db2.Backend() != backend {
			t.Fatalf("auto-detected %q, want %q", db2.Backend(), backend)
		}
		diffJSONSnapshots(t, snapshotJSON(t, db2), want)
	})
}

// damageTail simulates a crash's partial final write: bytes of a record
// that never finished reaching the log.
func damageTail(t *testing.T, backend, path string) {
	t.Helper()
	target := path
	if backend == BackendSegment {
		entries, err := os.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		target = ""
		for _, e := range entries {
			if e.Type().IsRegular() {
				target = filepath.Join(path, e.Name())
				break
			}
		}
		if target == "" {
			t.Fatal("no shard file to damage")
		}
	}
	f, err := os.OpenFile(target, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible torn suffix for either format: for jsonl an unterminated
	// JSON prefix, for segment a frame header whose payload never arrived.
	if _, err := f.Write([]byte(`{"op":"insert","c":"stats","doc":{"_id":"torn`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceTornTailRecovery: a physically torn tail is dropped on
// replay, the damage is cut off the file, and — the regression the backend
// split fixed for jsonl — appends after recovery never merge into damaged
// bytes: a second reopen still sees everything.
func TestConformanceTornTailRecovery(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
		if err := db.Collection("stats").InsertMany([]Document{
			{"_id": "a", "v": 1}, {"_id": "b", "v": 2},
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		damageTail(t, backend, path)

		db2 := mustOpenBackend(t, backend, path)
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
		db3 := mustOpenBackend(t, backend, path)
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

// logBytes measures the persisted log: the file size for jsonl, the sorted
// sum of shard sizes for segment.
func logBytes(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsDir() {
		return st.Size()
	}
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
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

		db2 := mustOpenBackend(t, backend, path, WithFailpoint(&stopAfterFailpoint{n: 4}))
		if n := db2.Collection("stats").Count(); n != 4 {
			t.Fatalf("stopped replay applied %d docs, want 4", n)
		}
		_ = db2 // abandoned without Close, like a crashed process
		if after := logBytes(t, path); after != before {
			t.Fatalf("injected stop changed the log: %d -> %d bytes", before, after)
		}

		db3 := mustOpenBackend(t, backend, path)
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
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

		db2 := mustOpenBackend(t, backend, path)
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
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

		db2 := mustOpenBackend(t, backend, path)
		defer db2.Close()
		if db2.Collection("stats").Get("post") == nil {
			t.Fatal("post-compact insert lost")
		}
		for _, name := range db2.CollectionNames() {
			if name == "gone" {
				t.Fatal("dropped collection resurrected by compaction")
			}
		}
		if got := db2.Collection("stats").Get("hot"); got == nil || got["round"] != canonicalRound(backend) {
			t.Fatalf("hot doc after compact+reopen: %v", got)
		}
	})
}

// canonicalRound is the replayed representation of the final round number
// (19): float64 through JSON, int64 through the binary codec.
func canonicalRound(backend string) any {
	if backend == BackendSegment {
		return int64(19)
	}
	return 19.0
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path, WithFailpoint(&failNthWrite{fail: 2}))
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

		db2 := mustOpenBackend(t, backend, path)
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path, WithSyncPolicy(SyncGroupCommit))
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
		db2 := mustOpenBackend(t, backend, path)
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		for _, seed := range []int64{1, 7, 23} {
			rng := rand.New(rand.NewSource(seed))
			oracle := MustOpen()
			db := mustOpenBackend(t, backend, path+fmt.Sprint(seed))

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
					db = mustOpenBackend(t, backend, path+fmt.Sprint(seed))
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

// TestConformanceBackendMismatch: naming the wrong backend for existing
// on-disk state must fail loudly instead of misreading the log.
func TestConformanceBackendMismatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
		if err := db.Collection("stats").Insert(Document{"_id": "a"}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		other := BackendSegment
		if backend == BackendSegment {
			other = BackendJSONL
		}
		if _, err := Open(WithPath(path), WithBackend(other)); err == nil {
			t.Fatalf("opening %s state as %s succeeded", backend, other)
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
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
		db2 := mustOpenBackend(t, backend, path)
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
		db3 := mustOpenBackend(t, backend, path)
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		db := mustOpenBackend(t, backend, path)
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
		db2 := mustOpenBackend(t, backend, path)
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
// the in-memory store and on every backend: positions are stable across
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
	forEachBackend(t, func(t *testing.T, backend, path string) {
		run(t, mustOpenBackend(t, backend, path), func() *DB { return mustOpenBackend(t, backend, path) })
	})
}
