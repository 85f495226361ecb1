package docdb

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGenerationBumpsOnMutations pins the generation contract: every
// mutation moves Generation, destructive mutations also move
// RewriteGeneration, and reads or no-op mutations move neither.
func TestGenerationBumpsOnMutations(t *testing.T) {
	db := MustOpen()
	c := db.Collection("g")
	if c.Generation() != 0 || c.RewriteGeneration() != 0 {
		t.Fatalf("fresh collection generations = %d/%d, want 0/0",
			c.Generation(), c.RewriteGeneration())
	}

	// Pure appends bump Generation only.
	if err := c.Insert(Document{"_id": "a", "v": 1}); err != nil {
		t.Fatal(err)
	}
	g1, r1 := c.Generation(), c.RewriteGeneration()
	if g1 == 0 {
		t.Fatal("Insert did not bump Generation")
	}
	if r1 != 0 {
		t.Fatal("Insert bumped RewriteGeneration")
	}
	if _, err := c.UpsertMany([]Document{{"_id": "b", "v": 2}}); err != nil {
		t.Fatal(err)
	}
	g2, r2 := c.Generation(), c.RewriteGeneration()
	if g2 <= g1 || r2 != 0 {
		t.Fatalf("fresh upsert: gen %d->%d rewrite %d", g1, g2, r2)
	}

	// Reads move nothing.
	c.Find(Query{})
	c.ForEach(Query{}, func(Document) bool { return true })
	c.Get("a")
	if c.Generation() != g2 || c.RewriteGeneration() != 0 {
		t.Fatal("reads moved a generation")
	}

	// A delete that matches nothing is a no-op.
	if n := c.Delete(Eq("v", 999)); n != 0 {
		t.Fatalf("deleted %d", n)
	}
	if c.Generation() != g2 || c.RewriteGeneration() != 0 {
		t.Fatal("no-op delete moved a generation")
	}

	// Destructive mutations bump both.
	if n := c.Update(Eq("_id", "a"), Document{"v": 10}); n != 1 {
		t.Fatalf("updated %d", n)
	}
	g3, r3 := c.Generation(), c.RewriteGeneration()
	if g3 <= g2 || r3 != g3 {
		t.Fatalf("update: gen %d->%d rewrite %d", g2, g3, r3)
	}
	if _, err := c.UpsertMany([]Document{{"_id": "a", "v": 11}}); err != nil {
		t.Fatal(err)
	}
	g4, r4 := c.Generation(), c.RewriteGeneration()
	if g4 <= g3 || r4 != g4 {
		t.Fatalf("replacing upsert: gen %d->%d rewrite %d", g3, g4, r4)
	}
	if n := c.Delete(Eq("_id", "b")); n != 1 {
		t.Fatalf("deleted %d", n)
	}
	g5, r5 := c.Generation(), c.RewriteGeneration()
	if g5 <= g4 || r5 != g5 {
		t.Fatalf("delete: gen %d->%d rewrite %d", g4, g5, r5)
	}
}

// TestGenerationMonotonicAcrossDrop pins the DB-wide stamp property: a
// dropped-and-recreated collection never re-issues a stamp the old
// incarnation handed out (it reads 0 until mutated, then jumps past every
// stamp the DB ever issued).
func TestGenerationMonotonicAcrossDrop(t *testing.T) {
	db := MustOpen()
	c := db.Collection("g")
	for i := 0; i < 5; i++ {
		if err := c.Insert(Document{"v": i}); err != nil {
			t.Fatal(err)
		}
	}
	old := c.Generation()
	db.Drop("g")
	c2 := db.Collection("g")
	if c2.Generation() != 0 {
		t.Fatalf("recreated collection generation = %d, want 0", c2.Generation())
	}
	if err := c2.Insert(Document{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if c2.Generation() <= old {
		t.Fatalf("recreated collection re-issued stamp %d (old incarnation reached %d)",
			c2.Generation(), old)
	}
}

// TestGenerationAfterReplay pins that log replay counts as mutation:
// a reopened database starts with non-zero generations, so caches built
// against the previous process cannot validate against it.
func TestGenerationAfterReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("g")
	if err := c.InsertMany([]Document{{"_id": "a"}, {"_id": "b"}}); err != nil {
		t.Fatal(err)
	}
	if n := c.Delete(Eq("_id", "b")); n != 1 {
		t.Fatalf("deleted %d", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	c2 := db2.Collection("g")
	if c2.Count() != 1 {
		t.Fatalf("replayed %d docs", c2.Count())
	}
	if c2.Generation() == 0 {
		t.Fatal("replayed collection has zero Generation")
	}
	if c2.RewriteGeneration() == 0 {
		t.Fatal("replayed delete did not move RewriteGeneration")
	}
	// The directory must still exist (sanity that we exercised the log path).
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
