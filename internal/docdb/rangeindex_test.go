package docdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// Index-maintenance churn: a collection with a hash index and ordered
// indexes is driven through randomized InsertMany/UpsertMany/Update/Delete
// rounds — including updates that change an indexed field's value — while a
// shadow model replays the same mutations naively. After every round the
// planner's equality, range and sorted-scan paths must agree with the
// shadow, so stale or duplicated index entries surface immediately. The
// volume crosses pendingMax and the dead-tombstone threshold, so merges of
// the two-level sorted index run mid-test. Deletes leave tombstones in the
// document slice (docdb.go compactLocked), so every round also checks the
// reads a visited tombstone would corrupt — filters a nil document matches,
// nil-filter scans and group reads, storage order on every plan — and the
// representation's own invariants.

// shadow mirrors the engine's documented mutation semantics on a plain
// slice: insertion order preserved, deletes compact, updates in place.
type shadow struct {
	docs []Document
	pos  map[string]int
}

func newShadow() *shadow { return &shadow{pos: map[string]int{}} }

func (s *shadow) insert(docs []Document) {
	for _, d := range docs {
		c := d.Clone()
		s.pos[c.ID()] = len(s.docs)
		s.docs = append(s.docs, c)
	}
}

func (s *shadow) upsert(docs []Document) {
	for _, d := range docs {
		c := d.Clone()
		if i, ok := s.pos[c.ID()]; ok {
			s.docs[i] = c
			continue
		}
		s.pos[c.ID()] = len(s.docs)
		s.docs = append(s.docs, c)
	}
}

func (s *shadow) update(f Filter, set Document) {
	for _, d := range s.docs {
		if !f.Match(d) {
			continue
		}
		for k, v := range set {
			if k == "_id" {
				continue
			}
			d[k] = cloneValue(v)
		}
	}
}

func (s *shadow) delete(f Filter) {
	kept := s.docs[:0]
	for _, d := range s.docs {
		if f.Match(d) {
			continue
		}
		kept = append(kept, d)
	}
	s.docs = kept
	s.pos = make(map[string]int, len(s.docs))
	for i, d := range s.docs {
		s.pos[d.ID()] = i
	}
}

func churnDoc(rng *rand.Rand, id int) Document {
	d := Document{
		"_id":     fmt.Sprintf("c%05d", id),
		"path_id": fmt.Sprintf("2_%d", rng.Intn(8)),
		"val":     float64(rng.Intn(1000)) / 4,
		"hops":    rng.Intn(12),
	}
	if rng.Intn(3) == 0 {
		d["opt"] = rng.Intn(4) // never indexed: Exists("opt", false) scans
	}
	return d
}

func mustEqualIDs(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d docs, shadow %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d = %s, shadow %s", what, i, got[i], want[i])
		}
	}
}

func checkAgainstShadow(t *testing.T, round int, col *Collection, s *shadow, rng *rand.Rand) {
	t.Helper()
	queries := []Query{
		{Filter: Eq("path_id", fmt.Sprintf("2_%d", rng.Intn(8))), SortBy: "val"},
		{Filter: And(Gte("val", float64(rng.Intn(200))), Lt("val", float64(50+rng.Intn(200)))), SortBy: "val"},
		{SortBy: "val", Limit: 1 + rng.Intn(20)},
		{SortBy: "val", SortDesc: true, Limit: 1 + rng.Intn(20)},
		{Filter: Gt("val", float64(rng.Intn(250))), SortBy: "val", SortDesc: true, Skip: rng.Intn(4), Limit: 10},
		// Unsorted: the storage-order contract, on every plan. A scan that
		// visited a tombstone would hand Ne and Exists(…, false) a nil
		// document, which both match.
		{},
		{Skip: rng.Intn(5), Limit: 1 + rng.Intn(30)},
		{Filter: Eq("path_id", fmt.Sprintf("2_%d", rng.Intn(8)))},
		{Filter: Lt("val", float64(rng.Intn(250)))},
		{Filter: Ne("hops", rng.Intn(12))},
		{Filter: Ne("path_id", fmt.Sprintf("2_%d", rng.Intn(8))), SortBy: "hops", Limit: 15},
		{Filter: Exists("opt", false)},
		{Filter: Ne("hops", rng.Intn(12)), SortBy: "path_id", SortDesc: true}, // full sort, no index
		{Filter: Exists("ghost", false), Skip: 3, Limit: 40},
	}
	for qi, q := range queries {
		what := fmt.Sprintf("%s round %d query %d %+v", col.Name(), round, qi, q)
		want := idsOf(naiveQuery(s.docs, q))
		mustEqualIDs(t, what, idsOf(col.Find(q)), want)
		var streamed []string
		col.ForEach(q, func(d Document) bool {
			streamed = append(streamed, d.ID())
			return true
		})
		mustEqualIDs(t, what+" (ForEach)", streamed, want)
	}
	if col.Count() != len(s.docs) {
		t.Fatalf("%s round %d: Count %d, shadow %d", col.Name(), round, col.Count(), len(s.docs))
	}

	// Nil-filter group reads over every live document.
	groups := map[string]*AggResult{}
	for _, d := range s.docs {
		key := d["path_id"].(string)
		g := groups[key]
		if g == nil {
			g = &AggResult{Key: key}
			groups[key] = g
		}
		g.Count++
		g.Sum += d["val"].(float64)
	}
	distinct := col.Distinct("path_id", nil)
	agg := col.Aggregate(nil, "path_id", "val")
	if len(distinct) != len(groups) || len(agg) != len(groups) {
		t.Fatalf("%s round %d: %d distinct, %d groups, shadow %d", col.Name(), round, len(distinct), len(agg), len(groups))
	}
	for i, g := range agg {
		want := groups[g.Key]
		if want == nil || distinct[i] != g.Key || g.Count != want.Count || g.Sum != want.Sum {
			t.Fatalf("%s round %d: group %+v (distinct %s), shadow %+v", col.Name(), round, g, distinct[i], want)
		}
	}
}

// checkStorageInvariants reads the collection's representation directly:
// the tombstone count is exact, byID holds exactly the live documents at
// their positions, no tombstone trails the slice, and the compaction rule's
// postcondition holds — tombstones never outnumber live documents.
func checkStorageInvariants(t *testing.T, round int, col *Collection) (dead int) {
	t.Helper()
	col.mu.RLock()
	defer col.mu.RUnlock()
	live := 0
	for i, d := range col.docs {
		if d == nil {
			continue
		}
		live++
		if at, ok := col.byID[d.ID()]; !ok || at != i {
			t.Fatalf("%s round %d: byID[%s] = %d,%v, stored at %d", col.name, round, d.ID(), at, ok, i)
		}
	}
	dead = len(col.docs) - live
	if dead != col.dead || len(col.byID) != live {
		t.Fatalf("%s round %d: %d tombstones counted as %d, %d live with %d ids", col.name, round, dead, col.dead, live, len(col.byID))
	}
	if dead > live {
		t.Fatalf("%s round %d: %d tombstones outnumber %d live documents", col.name, round, dead, live)
	}
	if n := len(col.docs); n > 0 && col.docs[n-1] == nil {
		t.Fatalf("%s round %d: trailing tombstone", col.name, round)
	}
	// A hash index holds one id per live document that has the field, an
	// ordered index one entry per live document (a missing field keys as
	// nil) — and neither holds anything for a tombstone.
	for field, idx := range col.indexes {
		have, want := 0, 0
		for _, ids := range idx.byValue {
			have += len(ids)
		}
		for _, d := range col.docs {
			if _, ok := d.lookupFP(idx.fp); ok {
				want++
			}
		}
		if have != want {
			t.Fatalf("%s round %d: hash index %s holds %d ids, %d live documents have the field", col.name, round, field, have, want)
		}
	}
	for field, si := range col.sorted {
		if n := len(si.entries) + len(si.pending) - len(si.dead); n != live {
			t.Fatalf("%s round %d: sorted index %s holds %d entries for %d live documents", col.name, round, field, n, live)
		}
	}
	return dead
}

func TestIndexMaintenanceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	db := MustOpen()
	// "churn" carries its indexes from the start. "late" sees the same
	// mutations with none — its updates and deletes are scans over the
	// tombstoned slice — and gets each index only after deletes have left
	// tombstones behind, so the builds must skip them.
	col := db.Collection("churn")
	col.EnsureIndex("path_id")
	col.EnsureSortedIndex("val")
	col.EnsureSortedIndex("hops")
	late := db.Collection("late")
	cols := []*Collection{col, late}
	lateIndexes := []func(){
		func() { late.EnsureIndex("path_id") },
		func() { late.EnsureSortedIndex("val") },
		func() { late.EnsureSortedIndex("hops") },
	}
	s := newShadow()
	nextID := 0

	batch := func(n int) []Document {
		docs := make([]Document, n)
		for i := range docs {
			docs[i] = churnDoc(rng, nextID)
			nextID++
		}
		return docs
	}
	insert := func(docs []Document) {
		for _, c := range cols {
			if err := c.InsertMany(docs); err != nil {
				t.Fatal(err)
			}
		}
		s.insert(docs)
	}

	// Seed enough that the first delete/update rounds work on real volume,
	// and inserts alone cross pendingMax (256) several times.
	insert(batch(600))

	// The compaction threshold must be crossed in both directions: deletes
	// that leave tombstones in place, and deletes that squeeze them out.
	keptTombstones, squeezed := false, false

	for round := 0; round < 48; round++ {
		switch round % 4 {
		case 0: // insert a fresh batch
			insert(batch(150 + rng.Intn(150)))
		case 1: // upsert: half replacements of existing ids, half new
			var docs []Document
			for i := 0; i < 40; i++ {
				d := churnDoc(rng, nextID)
				nextID++
				if i%2 == 0 && len(s.docs) > 0 {
					d["_id"] = s.docs[rng.Intn(len(s.docs))].ID()
				}
				docs = append(docs, d)
			}
			// Dedup ids within the batch (UpsertMany rejects repeats).
			seen := map[string]bool{}
			uniq := docs[:0]
			for _, d := range docs {
				if !seen[d.ID()] {
					seen[d.ID()] = true
					uniq = append(uniq, d)
				}
			}
			for _, c := range cols {
				if _, err := c.UpsertMany(uniq); err != nil {
					t.Fatal(err)
				}
			}
			s.upsert(uniq)
		case 2: // update changing the *sorted-indexed* field's value
			f := Eq("path_id", fmt.Sprintf("2_%d", rng.Intn(8)))
			set := Document{"val": float64(rng.Intn(1000)) / 4, "hops": rng.Intn(12)}
			if round%8 == 6 {
				// A filter no index plans and a tombstone would match: the
				// scan must not hand Update a nil document.
				f = Exists("opt", false)
				set = Document{"opt": rng.Intn(4), "hops": rng.Intn(12)}
			}
			matched := 0
			for _, d := range s.docs {
				if f.Match(d) {
					matched++
				}
			}
			for _, c := range cols {
				if n := c.Update(f, set); n != matched {
					t.Fatalf("%s round %d: Update reported %d, shadow matched %d", c.Name(), round, n, matched)
				}
			}
			s.update(f, set)
		case 3: // range delete on the sorted-indexed field
			// Alternately narrow (a few interior tombstones stay) and wide
			// (most documents go, forcing a squeeze).
			lo := float64(rng.Intn(200))
			f := And(Gte("val", lo), Lt("val", lo+float64(5+rng.Intn(30))))
			switch round % 16 {
			case 7:
				f = And(Gte("val", float64(rng.Intn(40))), Lt("val", float64(210+rng.Intn(40))))
			case 15: // unplanned on both collections, and matches a nil document
				f = Ne("path_id", fmt.Sprintf("2_%d", rng.Intn(8)))
			}
			var deleted []string
			for _, d := range s.docs {
				if f.Match(d) {
					deleted = append(deleted, d.ID())
				}
			}
			s.delete(f)
			survivor := ""
			if len(s.docs) > 0 {
				survivor = s.docs[len(s.docs)-1].ID()
			}
			for _, c := range cols {
				before := checkStorageInvariants(t, round, c)
				at := c.byID[survivor]
				if n := c.Delete(f); n != len(deleted) {
					t.Fatalf("%s round %d: Delete reported %d, shadow removed %d", c.Name(), round, n, len(deleted))
				}
				after := checkStorageInvariants(t, round, c)
				if after > before {
					keptTombstones = true
				}
				// Only a squeeze moves a surviving document.
				if survivor != "" && c.byID[survivor] != at {
					squeezed = true
				}
				for _, id := range deleted {
					if got := c.Get(id); got != nil {
						t.Fatalf("%s round %d: Get(%s) of a deleted id = %v", c.Name(), round, id, got)
					}
				}
			}
			// An index created now is built over a tombstoned slice.
			if len(lateIndexes) > 0 && late.dead > 0 {
				lateIndexes[0]()
				lateIndexes = lateIndexes[1:]
			}
			// Deleted ids are free again: re-inserting some must succeed and
			// append in storage order, not reuse the old slot.
			if len(deleted) > 5 {
				deleted = deleted[:5]
			}
			again := batch(len(deleted))
			for i, id := range deleted {
				again[i]["_id"] = id
			}
			insert(again)
		}
		for _, c := range cols {
			checkStorageInvariants(t, round, c)
			checkAgainstShadow(t, round, c, s, rng)
		}
	}
	if len(lateIndexes) > 0 {
		t.Fatalf("%d late indexes never found tombstones to be built over", len(lateIndexes))
	}
	if !keptTombstones || !squeezed {
		t.Fatalf("compaction threshold not crossed both ways: kept tombstones %v, squeezed %v", keptTombstones, squeezed)
	}
}

// TestSortedIndexListedSeparately pins the listing contract: hash and
// ordered indexes are separate namespaces.
func TestSortedIndexListedSeparately(t *testing.T) {
	db := MustOpen()
	col := db.Collection("c")
	col.EnsureIndex("a")
	col.EnsureSortedIndex("b")
	col.EnsureSortedIndex("b") // idempotent
	if got := col.Indexes(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Indexes() = %v, want [a]", got)
	}
	if got := col.SortedIndexes(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("SortedIndexes() = %v, want [b]", got)
	}
}

// TestEnsureSortedIndexOnExistingDocs verifies an index built after inserts
// serves ordered scans over the pre-existing documents.
func TestEnsureSortedIndexOnExistingDocs(t *testing.T) {
	db := MustOpen()
	col := db.Collection("c")
	for i := 0; i < 50; i++ {
		if err := col.Insert(Document{"_id": fmt.Sprintf("d%02d", i), "v": (i * 37) % 50}); err != nil {
			t.Fatal(err)
		}
	}
	col.EnsureSortedIndex("v")
	got := col.Find(Query{SortBy: "v", Limit: 5})
	for i, d := range got {
		if v, _ := d["v"].(int); v != i {
			t.Fatalf("position %d: v = %v, want %d", i, d["v"], i)
		}
	}
}

// TestRangeQueryMissingFieldSemantics pins that documents lacking the
// filtered field stay excluded from range results when a sorted index
// serves the query (the index keys them as nil; the bounds must not).
func TestRangeQueryMissingFieldSemantics(t *testing.T) {
	db := MustOpen()
	withIdx := db.Collection("i")
	plain := db.Collection("p")
	docs := []Document{
		{"_id": "a", "v": 1},
		{"_id": "b"}, // no v
		{"_id": "c", "v": 10},
		{"_id": "d", "v": "s"}, // string sorts after numbers
	}
	for _, col := range []*Collection{withIdx, plain} {
		if err := col.InsertMany(docs); err != nil {
			t.Fatal(err)
		}
	}
	withIdx.EnsureSortedIndex("v")
	for _, f := range []Filter{Gt("v", 0), Lt("v", 5), Gte("v", 1), Lte("v", 100), Eq("v", 10)} {
		want := idsOf(plain.Find(Query{Filter: f, SortBy: "_id"}))
		got := idsOf(withIdx.Find(Query{Filter: f, SortBy: "_id"}))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("filter %+v: indexed %v, plain %v", f, got, want)
		}
	}
}
