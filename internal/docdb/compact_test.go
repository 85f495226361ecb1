package docdb

import (
	"fmt"
	"path/filepath"
	"testing"
)

func TestCompactShrinksJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("stats")
	// Generate history: inserts, updates and deletes.
	for i := 0; i < 200; i++ {
		if err := c.Insert(Document{"_id": fmt.Sprintf("d%d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		c.Update(Lt("v", 100), Document{"touched": round})
	}
	c.Delete(Gte("v", 150))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := logBytes(t, path)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := logBytes(t, path); after >= before {
		t.Errorf("compaction did not shrink: %d -> %d bytes", before, after)
	}

	// Data intact in memory and the log stays writable.
	if c.Count() != 150 {
		t.Fatalf("count %d after compact", c.Count())
	}
	if err := c.Insert(Document{"_id": "post-compact"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay reproduces the full state including the post-compact insert.
	db2, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := db2.Collection("stats")
	if c2.Count() != 151 {
		t.Fatalf("replayed %d docs, want 151", c2.Count())
	}
	if d := c2.Get("d50"); d == nil || d["touched"] != int64(4) {
		t.Errorf("update lost in compaction: %v", d)
	}
	if c2.Get("d199") != nil {
		t.Error("deleted doc resurrected by compaction")
	}
	if c2.Get("post-compact") == nil {
		t.Error("post-compact insert lost")
	}
}

func TestCompactInMemoryFails(t *testing.T) {
	if err := MustOpen().Compact(); err == nil {
		t.Error("in-memory compact accepted")
	}
}

func TestCompactDroppedCollectionStaysGone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	db.Collection("tmp").Insert(Document{"_id": "x"})
	db.Collection("keep").Insert(Document{"_id": "y"})
	db.Drop("tmp")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, n := range db2.CollectionNames() {
		if n == "tmp" {
			t.Error("dropped collection resurrected")
		}
	}
	if db2.Collection("keep").Get("y") == nil {
		t.Error("kept collection lost")
	}
}
