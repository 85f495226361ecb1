package docdb

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// testFailpoint is a programmable Failpoint: failWrite makes the next
// BeforeWrite on a collection fail, keepReplay caps how many journal
// entries replay applies (-1 = all).
type testFailpoint struct {
	mu         sync.Mutex
	failOn     string // collection; "" = never
	keepReplay int
	writes     []string // "<collection>/<op>/<batch>" log
	replayed   int
}

var errInjected = errors.New("injected")

func (f *testFailpoint) BeforeWrite(collection, op string, batch int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, collection+"/"+op)
	_ = batch
	if collection == f.failOn {
		return errInjected
	}
	return nil
}

func (f *testFailpoint) ReplayEntry(n int, op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replayed++
	return f.keepReplay < 0 || n < f.keepReplay
}

// TestFailpointBeforeWriteAtomic: a failed batch leaves the collection, its
// indexes and the journal exactly as they were — for both insert and upsert.
func TestFailpointBeforeWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("stats")
	col.EnsureIndex("tag")
	if err := col.Insert(Document{"_id": "keep", "tag": "t1", "v": 1}); err != nil {
		t.Fatal(err)
	}
	gen := col.Generation()

	fp := &testFailpoint{failOn: "stats", keepReplay: -1}
	db.SetFailpoint(fp)

	err = col.InsertMany([]Document{{"_id": "a", "tag": "t2"}, {"_id": "b", "tag": "t2"}})
	if !errors.Is(err, errInjected) {
		t.Fatalf("insert under failpoint: err = %v, want injected", err)
	}
	if _, err := col.UpsertMany([]Document{{"_id": "keep", "tag": "t9"}}); !errors.Is(err, errInjected) {
		t.Fatalf("upsert under failpoint: err = %v, want injected", err)
	}
	if n := col.Count(); n != 1 {
		t.Fatalf("collection has %d documents after failed batches, want 1", n)
	}
	if got := col.Find(Query{Filter: Eq("tag", "t2")}); len(got) != 0 {
		t.Fatalf("index knows %d documents the failed batch never stored", len(got))
	}
	if col.Generation() != gen {
		t.Fatal("failed batches bumped the collection generation")
	}
	// Writes on other collections keep working with the failpoint installed.
	if err := db.Collection("other").Insert(Document{"_id": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing of the failed batches was journaled: a reopened database shows
	// exactly the surviving state.
	re, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Collection("stats").Count(); n != 1 {
		t.Fatalf("replayed collection has %d documents, want 1", n)
	}
	if doc := re.Collection("stats").Get("keep"); doc == nil || doc["tag"] != "t1" {
		t.Fatalf("replayed document = %v, want the pre-fault version", doc)
	}
	names, err := shardFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range names {
		if data := readAll(t, filepath.Join(path, fn)); bytes.Contains(data, []byte("t2")) || bytes.Contains(data, []byte("t9")) {
			t.Fatalf("shard %s contains data from aborted batches:\n%q", fn, data)
		}
	}
}

// TestFailpointReplayTruncation: ReplayEntry returning false stops replay as
// if the journal ended there, and the database stays fully usable after.
func TestFailpointReplayTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e0", "e1", "e2", "e3"} {
		if err := db.Collection("c").Insert(Document{"_id": id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fp := &testFailpoint{keepReplay: 2}
	re, err := Open(WithPath(path), WithFailpoint(fp))
	if err != nil {
		t.Fatal(err)
	}
	if fp.replayed != 3 { // entries 0 and 1 applied; consulting entry 2 stopped replay
		t.Fatalf("ReplayEntry consulted %d times, want 3", fp.replayed)
	}
	col := re.Collection("c")
	if n := col.Count(); n != 2 {
		t.Fatalf("truncated replay applied %d documents, want 2", n)
	}
	if col.Get("e0") == nil || col.Get("e1") == nil || col.Get("e2") != nil {
		t.Fatal("truncated replay kept the wrong entries")
	}
	// The lost tail is re-insertable and BeforeWrite is armed from the open.
	if err := col.Insert(Document{"_id": "e2"}); err != nil {
		t.Fatal(err)
	}
	if len(fp.writes) == 0 || fp.writes[len(fp.writes)-1] != "c/insert" {
		t.Fatalf("BeforeWrite log %v does not record the post-open insert", fp.writes)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal itself was never rewritten: a plain reopen sees all five
	// entries (e2 twice — the replayed original and the re-insert; first one
	// wins on duplicate _id).
	full, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if n := full.Collection("c").Count(); n != 4 {
		t.Fatalf("untruncated reopen has %d documents, want 4", n)
	}
}

// TestOpenWithNilFailpoint: a nil failpoint is exactly a plain Open.
func TestOpenWithNilFailpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(WithPath(path), WithFailpoint(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Collection("c").Insert(Document{"_id": "a"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithPath(path), WithFailpoint(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Collection("c").Get("a") == nil {
		t.Fatal("document lost across nil-failpoint reopen")
	}
}
