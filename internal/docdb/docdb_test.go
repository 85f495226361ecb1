package docdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func sampleDocs() []Document {
	return []Document{
		{"_id": "1_1", "server_id": 1, "hops": 6, "isds": []any{"16", "17"}, "status": "alive"},
		{"_id": "1_2", "server_id": 1, "hops": 7, "isds": []any{"16", "17", "19"}, "status": "alive"},
		{"_id": "2_1", "server_id": 2, "hops": 6, "isds": []any{"16", "17"}, "status": "timeout"},
		{"_id": "2_2", "server_id": 2, "hops": 8, "isds": []any{"16", "17", "18"}, "status": "alive", "loss": 10.5},
	}
}

func seeded(t *testing.T) *Collection {
	t.Helper()
	db := MustOpen()
	c := db.Collection("paths")
	if err := c.InsertMany(sampleDocs()); err != nil {
		t.Fatal(err)
	}
	return c
}

func ids(docs []Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID()
	}
	return out
}

func TestInsertAndGet(t *testing.T) {
	c := seeded(t)
	if c.Count() != 4 {
		t.Fatalf("count %d, want 4", c.Count())
	}
	d := c.Get("1_2")
	if d == nil || d["hops"] != 7 {
		t.Fatalf("Get(1_2) = %v", d)
	}
	if c.Get("nope") != nil {
		t.Error("phantom document")
	}
}

func TestInsertDuplicateIDRejectedAtomically(t *testing.T) {
	c := seeded(t)
	err := c.InsertMany([]Document{
		{"_id": "9_1", "hops": 5},
		{"_id": "1_1", "hops": 5}, // duplicate
	})
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	if c.Get("9_1") != nil {
		t.Error("batch was partially applied")
	}
	// Duplicate within the same batch.
	err = c.InsertMany([]Document{{"_id": "x"}, {"_id": "x"}})
	if err == nil {
		t.Fatal("intra-batch duplicate accepted")
	}
}

func TestInsertAutoID(t *testing.T) {
	db := MustOpen()
	c := db.Collection("auto")
	if err := c.InsertMany([]Document{{"v": 1}, {"v": 2}}); err != nil {
		t.Fatal(err)
	}
	docs := c.Find(Query{})
	if len(docs) != 2 || docs[0].ID() == "" || docs[0].ID() == docs[1].ID() {
		t.Errorf("auto ids: %v", ids(docs))
	}
	if err := c.Insert(Document{"_id": 42}); err == nil {
		t.Error("non-string _id accepted")
	}
	if err := c.Insert(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestSentinelErrors(t *testing.T) {
	c := seeded(t)
	if err := c.Insert(Document{"_id": "1_1"}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate error not ErrDuplicateID: %v", err)
	}
	if err := c.Insert(nil); !errors.Is(err, ErrBadDocument) {
		t.Errorf("nil error not ErrBadDocument: %v", err)
	}
	if err := c.Insert(Document{"_id": 7}); !errors.Is(err, ErrBadDocument) {
		t.Errorf("bad-id error not ErrBadDocument: %v", err)
	}
}

func TestInsertIsolation(t *testing.T) {
	db := MustOpen()
	c := db.Collection("iso")
	orig := Document{"_id": "a", "nested": map[string]any{"k": 1}}
	if err := c.Insert(orig); err != nil {
		t.Fatal(err)
	}
	orig["mutated"] = true
	got := c.Get("a")
	if _, leaked := got["mutated"]; leaked {
		t.Error("collection aliases caller memory")
	}
	got["alsoMutated"] = true
	if _, leaked := c.Get("a")["alsoMutated"]; leaked {
		t.Error("Get returns aliased memory")
	}
}

func TestFilters(t *testing.T) {
	c := seeded(t)
	cases := []struct {
		name string
		f    Filter
		want []string
	}{
		{"eq", Eq("server_id", 1), []string{"1_1", "1_2"}},
		{"eq-string", Eq("status", "timeout"), []string{"2_1"}},
		{"ne", Ne("status", "alive"), []string{"2_1"}},
		{"gt", Gt("hops", 6), []string{"1_2", "2_2"}},
		{"gte", Gte("hops", 7), []string{"1_2", "2_2"}},
		{"lt", Lt("hops", 7), []string{"1_1", "2_1"}},
		{"lte", Lte("hops", 6), []string{"1_1", "2_1"}},
		{"in", In("hops", 7, 8), []string{"1_2", "2_2"}},
		{"nin", Nin("hops", 6), []string{"1_2", "2_2"}},
		{"exists", Exists("loss", true), []string{"2_2"}},
		{"not-exists", And(Exists("loss", false), Eq("server_id", 2)), []string{"2_1"}},
		{"regex", Regex("_id", `^2_`), []string{"2_1", "2_2"}},
		{"and", And(Eq("server_id", 2), Eq("status", "alive")), []string{"2_2"}},
		{"or", Or(Eq("hops", 8), Eq("status", "timeout")), []string{"2_1", "2_2"}},
		{"not", And(Not(Eq("server_id", 2)), Eq("hops", 6)), []string{"1_1"}},
		{"elem", ElemMatch("isds", "19"), []string{"1_2"}},
		{"elem-none", ElemMatch("isds", "99"), nil},
		{"and-empty", And(), []string{"1_1", "1_2", "2_1", "2_2"}},
		{"or-empty", Or(), nil},
	}
	for _, tc := range cases {
		got := ids(c.Find(Query{Filter: tc.f, SortBy: "_id"}))
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMissingFieldSemantics(t *testing.T) {
	c := seeded(t)
	// Ne matches documents missing the field, like MongoDB.
	got := ids(c.Find(Query{Filter: Ne("loss", 10.5), SortBy: "_id"}))
	if fmt.Sprint(got) != fmt.Sprint([]string{"1_1", "1_2", "2_1"}) {
		t.Errorf("Ne on missing: %v", got)
	}
	// Gt does not.
	if n := len(c.Find(Query{Filter: Gt("loss", 0)})); n != 1 {
		t.Errorf("Gt on missing matched %d", n)
	}
	// Nin matches missing.
	if n := len(c.Find(Query{Filter: Nin("loss", 10.5)})); n != 3 {
		t.Errorf("Nin on missing matched %d", n)
	}
}

func TestNumericCrossTypeCompare(t *testing.T) {
	db := MustOpen()
	c := db.Collection("nums")
	if err := c.InsertMany([]Document{
		{"_id": "a", "v": 5},
		{"_id": "b", "v": 5.0},
		{"_id": "c", "v": int64(7)},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Find(Query{Filter: Eq("v", 5.0)})); n != 2 {
		t.Errorf("int/float equality matched %d, want 2", n)
	}
	if n := len(c.Find(Query{Filter: Gt("v", 5)})); n != 1 {
		t.Errorf("Gt matched %d, want 1", n)
	}
}

func TestSortSkipLimitProject(t *testing.T) {
	c := seeded(t)
	docs := c.Find(Query{SortBy: "hops", SortDesc: true, Limit: 2})
	if len(docs) != 2 || docs[0]["hops"] != 8 || docs[1]["hops"] != 7 {
		t.Errorf("sort desc limit: %v", docs)
	}
	docs = c.Find(Query{SortBy: "_id", Skip: 3})
	if len(docs) != 1 || docs[0].ID() != "2_2" {
		t.Errorf("skip: %v", ids(docs))
	}
	docs = c.Find(Query{SortBy: "_id", Skip: 99})
	if len(docs) != 0 {
		t.Errorf("skip past end: %v", ids(docs))
	}
	docs = c.Find(Query{Filter: Eq("_id", "2_2"), Project: []string{"hops", "nope"}})
	if len(docs) != 1 {
		t.Fatal("projection lost the document")
	}
	if docs[0]["hops"] != 8 || docs[0].ID() != "2_2" {
		t.Errorf("projection content: %v", docs[0])
	}
	if _, has := docs[0]["status"]; has {
		t.Error("projection leaked unrequested field")
	}
}

func TestFindOne(t *testing.T) {
	c := seeded(t)
	d := c.FindOne(Query{Filter: Eq("server_id", 2), SortBy: "hops", SortDesc: true})
	if d == nil || d.ID() != "2_2" {
		t.Errorf("FindOne: %v", d)
	}
	if c.FindOne(Query{Filter: Eq("server_id", 99)}) != nil {
		t.Error("FindOne phantom")
	}
}

func TestDistinct(t *testing.T) {
	c := seeded(t)
	got := c.Distinct("status", nil)
	if fmt.Sprint(got) != fmt.Sprint([]string{"alive", "timeout"}) {
		t.Errorf("distinct: %v", got)
	}
	got = c.Distinct("hops", Eq("server_id", 1))
	if fmt.Sprint(got) != fmt.Sprint([]string{"6", "7"}) {
		t.Errorf("distinct filtered: %v", got)
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	c := seeded(t)
	if n := c.Delete(Eq("server_id", 1)); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if c.Count() != 2 || c.Get("1_1") != nil {
		t.Error("delete incomplete")
	}
	// Index integrity after delete.
	if d := c.Get("2_2"); d == nil || d["hops"] != 8 {
		t.Error("byID index broken after delete")
	}
	if n := c.Update(Eq("_id", "2_1"), Document{"status": "alive", "_id": "evil"}); n != 1 {
		t.Fatalf("updated %d", n)
	}
	d := c.Get("2_1")
	if d == nil || d["status"] != "alive" {
		t.Errorf("update not applied: %v", d)
	}
}

func TestDottedPathLookup(t *testing.T) {
	db := MustOpen()
	c := db.Collection("nested")
	if err := c.Insert(Document{
		"_id":   "n1",
		"stats": map[string]any{"latency": map[string]any{"avg": 42.5}},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Find(Query{Filter: Gt("stats.latency.avg", 40)})); n != 1 {
		t.Errorf("dotted lookup matched %d", n)
	}
	if n := len(c.Find(Query{Filter: Gt("stats.latency.nope", 40)})); n != 0 {
		t.Errorf("phantom dotted match %d", n)
	}
	if n := len(c.Find(Query{Filter: Gt("stats.latency.avg.too.deep", 40)})); n != 0 {
		t.Errorf("over-deep path matched %d", n)
	}
}

func TestCollectionNamesAndDrop(t *testing.T) {
	db := MustOpen()
	db.Collection("b")
	db.Collection("a")
	if got := db.CollectionNames(); fmt.Sprint(got) != "[a b]" {
		t.Errorf("names: %v", got)
	}
	db.Drop("a")
	if got := db.CollectionNames(); fmt.Sprint(got) != "[b]" {
		t.Errorf("after drop: %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := MustOpen()
	c := db.Collection("conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = c.Insert(Document{"_id": fmt.Sprintf("%d_%d", g, i), "g": g})
				_ = c.Find(Query{Filter: Eq("g", g)})
			}
		}()
	}
	wg.Wait()
	if c.Count() != 400 {
		t.Errorf("count %d, want 400", c.Count())
	}
}

// Property: De Morgan — Not(Or(a,b)) == And(Not(a),Not(b)) over random docs.
func TestFilterDeMorganQuick(t *testing.T) {
	f := func(h1, h2, probe uint8) bool {
		d := Document{"hops": int(probe % 12)}
		a := Eq("hops", int(h1%12))
		b := Eq("hops", int(h2%12))
		lhs := Not(Or(a, b)).Match(d)
		rhs := And(Not(a), Not(b)).Match(d)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: In == Or of Eq; Nin == Not(In).
func TestInOrEquivalenceQuick(t *testing.T) {
	f := func(v1, v2, probe uint8) bool {
		d := Document{"v": int(probe % 10)}
		in := In("v", int(v1%10), int(v2%10)).Match(d)
		or := Or(Eq("v", int(v1%10)), Eq("v", int(v2%10))).Match(d)
		nin := Nin("v", int(v1%10), int(v2%10)).Match(d)
		return in == or && nin == !in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: sorting is total — Find with SortBy never panics and returns all
// documents regardless of mixed value kinds.
func TestSortTotalOverMixedKinds(t *testing.T) {
	db := MustOpen()
	c := db.Collection("mixed")
	docs := []Document{
		{"_id": "a", "v": 1}, {"_id": "b", "v": "s"}, {"_id": "c", "v": true},
		{"_id": "d", "v": nil}, {"_id": "e", "v": 2.5}, {"_id": "f"},
	}
	if err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	got := c.Find(Query{SortBy: "v"})
	if len(got) != len(docs) {
		t.Errorf("sorted %d of %d docs", len(got), len(docs))
	}
}

func TestUpsertMany(t *testing.T) {
	db := MustOpen()
	c := db.Collection("stats")
	if err := c.Insert(Document{"_id": "a", "v": 1}); err != nil {
		t.Fatal(err)
	}
	replaced, err := c.UpsertMany([]Document{
		{"_id": "a", "v": 2},
		{"_id": "b", "v": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 1 {
		t.Errorf("replaced %d, want 1", replaced)
	}
	if c.Count() != 2 {
		t.Errorf("count %d, want 2", c.Count())
	}
	if d := c.Get("a"); d["v"] != 2 {
		t.Errorf("upsert did not replace: %v", d)
	}
	// Idempotent: a second identical batch replaces everything, adds nothing.
	replaced, err = c.UpsertMany([]Document{{"_id": "a", "v": 2}, {"_id": "b", "v": 3}})
	if err != nil || replaced != 2 || c.Count() != 2 {
		t.Errorf("re-upsert: replaced %d count %d err %v", replaced, c.Count(), err)
	}
	// Rejected batches leave the collection untouched.
	for _, batch := range [][]Document{
		{{"_id": "c", "v": 1}, nil},
		{{"v": 1}},
		{{"_id": "dup"}, {"_id": "dup"}},
	} {
		if _, err := c.UpsertMany(batch); err == nil {
			t.Errorf("bad batch %v accepted", batch)
		}
	}
	if c.Count() != 2 {
		t.Errorf("failed batch mutated the collection: %d docs", c.Count())
	}
}

func TestInMemoryFlushCloseNoop(t *testing.T) {
	db := MustOpen()
	if err := db.Flush(); err != nil {
		t.Error(err)
	}
	if err := db.Close(); err != nil {
		t.Error(err)
	}
}
