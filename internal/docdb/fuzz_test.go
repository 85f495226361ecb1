package docdb

import (
	"fmt"
	"path/filepath"
	"testing"
)

// FuzzCompileFilter is a differential fuzzer: the fuzz input is decoded
// deterministically into a filter tree and a batch of documents, and the
// compiled matcher must agree with the naive interface evaluator on every
// one of them. Unlike the seeded oracle tests this explores the corners the
// generator's fixed pools miss by construction — cross-type comparisons
// (int vs float64 vs string vs bool vs nil), dotted paths through non-map
// values, empty And/Or, double negation, filters on missing fields.

// fuzzWalker consumes fuzz bytes one decision at a time; an exhausted input
// yields zeros, so every byte string decodes to something valid.
type fuzzWalker struct {
	data []byte
	pos  int
}

func (w *fuzzWalker) next() byte {
	if w.pos >= len(w.data) {
		return 0
	}
	b := w.data[w.pos]
	w.pos++
	return b
}

// pick returns next() reduced to [0, n).
func (w *fuzzWalker) pick(n int) int { return int(w.next()) % n }

// The field pool mixes flat names, dotted paths (including one that dives
// through a non-map on some documents), _id and a never-present field.
var fuzzFields = []string{"a", "b", "s", "ok", "arr", "n.x", "n.y.z", "a.x", "_id", "ghost"}

// The value pool deliberately spans types: the compiled comparators
// specialise on the query value's type and must degrade to the generic
// compareValues semantics when the document side differs. No NaN — the pool
// is for equivalence testing, not for pinning NaN ordering.
var fuzzValues = []any{
	nil, 0, 1, -1, int(7), int64(7), float64(7), 7.5, -2.25, 1e6,
	"", "x", "seven", "2_3", true, false,
}

// Valid patterns only: Regex panics on bad patterns by contract.
var fuzzPatterns = []string{"^s", "e.en", "^$", "[0-9]+", "x|y"}

func (w *fuzzWalker) field() string { return fuzzFields[w.pick(len(fuzzFields))] }
func (w *fuzzWalker) value() any    { return fuzzValues[w.pick(len(fuzzValues))] }

// filter decodes one filter tree node. Depth is bounded so adversarial
// inputs cannot build towers of Not; breadth (And/Or arity, In set size) is
// 0-3, covering the empty-combinator identities.
func (w *fuzzWalker) filter(depth int) Filter {
	kind := w.pick(13)
	if depth <= 0 && kind >= 9 {
		kind %= 9
	}
	switch kind {
	case 0:
		return Eq(w.field(), w.value())
	case 1:
		return Ne(w.field(), w.value())
	case 2:
		return Gt(w.field(), w.value())
	case 3:
		return Gte(w.field(), w.value())
	case 4:
		return Lt(w.field(), w.value())
	case 5:
		return Lte(w.field(), w.value())
	case 6:
		values := make([]any, w.pick(4))
		for i := range values {
			values[i] = w.value()
		}
		return In(w.field(), values...)
	case 7:
		values := make([]any, w.pick(4))
		for i := range values {
			values[i] = w.value()
		}
		return Nin(w.field(), values...)
	case 8:
		return Exists(w.field(), w.pick(2) == 0)
	case 9:
		return Regex(w.field(), fuzzPatterns[w.pick(len(fuzzPatterns))])
	case 10:
		subs := make([]Filter, w.pick(4))
		for i := range subs {
			subs[i] = w.filter(depth - 1)
		}
		return And(subs...)
	case 11:
		subs := make([]Filter, w.pick(4))
		for i := range subs {
			subs[i] = w.filter(depth - 1)
		}
		return Or(subs...)
	default:
		return Not(w.filter(depth - 1))
	}
}

// document decodes one document over the same field/value pools the filters
// draw from, so matches are common. Each optional field flips on its own
// byte; "a" sometimes holds a scalar where a filter probes the path "a.x".
func (w *fuzzWalker) document(i int) Document {
	d := Document{"_id": fuzzValues[10+w.pick(4)].(string) + string(rune('a'+i%26))}
	if w.pick(2) == 0 {
		d["a"] = w.value()
	}
	if w.pick(2) == 0 {
		d["b"] = w.value()
	}
	if w.pick(2) == 0 {
		d["s"] = fuzzValues[10+w.pick(4)]
	}
	if w.pick(2) == 0 {
		d["ok"] = w.pick(2) == 0
	}
	if w.pick(2) == 0 {
		arr := make([]any, w.pick(3))
		for j := range arr {
			arr[j] = w.value()
		}
		d["arr"] = arr
	}
	switch w.pick(3) {
	case 0:
		d["n"] = Document{"x": w.value(), "y": Document{"z": w.value()}}
	case 1:
		d["n"] = w.value() // scalar where filters expect a map
	}
	return d
}

func FuzzCompileFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("\x0a\x03\x00\x05\x0c\x0c\x01\x09\x02seed"))
	f.Add([]byte{12, 12, 12, 10, 0, 11, 0, 6, 3, 1, 2, 3, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &fuzzWalker{data: data}
		filter := w.filter(3)
		docs := make([]Document, 4)
		for i := range docs {
			docs[i] = w.document(i)
		}

		compiled := CompileFilter(filter)
		if again := CompileFilter(compiled); again != compiled {
			t.Fatal("CompileFilter is not idempotent")
		}
		for i, d := range docs {
			naive := filter.Match(d)
			if got := compiled.Match(d); got != naive {
				t.Fatalf("doc %d %v: compiled=%v naive=%v for filter %#v", i, d, got, naive, filter)
			}
			// Matching must not mutate state: a second evaluation agrees.
			if got := compiled.Match(d); got != naive {
				t.Fatalf("doc %d: compiled matcher unstable across calls", i)
			}
		}
	})
}

// FuzzCollectionOps decodes the fuzz input into a sequence of collection
// operations — insert, upsert, update, delete, index creation, reopen with
// and without Compact — and replays it against the shadow slice model of
// rangeindex_test.go. After every step the collection must hold the
// shadow's documents in the shadow's order, answer a drawn query like the
// naive engine, and keep its representation's invariants (tombstone count,
// byID, index sizes). Where the seeded churn test walks one long history
// with friendly values, this explores short histories over the filter
// fuzzer's adversarial pools: cross-type values, missing fields, filters a
// tombstone would match, colliding ids. The arrival cursor rides along as
// an invariant rather than a drawn step (so the corpus keeps decoding to the
// same histories): a cursor is taken every third step, and at every step
// "documents since that position" must be exactly what the shadow appended
// since, for as long as RewriteGeneration has not moved.
func FuzzCollectionOps(f *testing.F) {
	// The checked-in corpus (testdata/fuzz/FuzzCollectionOps) was picked by
	// random search for histories that build indexes over tombstones; the
	// segment-* inputs also reopen with the tombstones in place. The first
	// byte picks the store: even is in-memory, odd is a segment directory.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &fuzzWalker{data: data}
		opts := []Option(nil)
		if w.pick(2) == 1 {
			opts = []Option{WithPath(filepath.Join(t.TempDir(), "fuzz.db"))}
		}
		db, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { db.Close() }()
		col := db.Collection("fuzz")
		s := newShadow()
		// The cursor under test: a storage position, the RewriteGeneration
		// read with it, and the shadow's length at that moment.
		var cur struct {
			pos, shadowLen int
			rw             int64
		}
		takeCursor := func() {
			cur.pos, _, cur.rw = col.ForEachSince(1<<30, func(Document) {})
			cur.shadowLen = len(s.docs)
		}

		batch := func() []Document {
			docs := make([]Document, 1+w.pick(3))
			for i := range docs {
				docs[i] = w.document(w.pick(6))
			}
			return docs
		}
		for step := 0; step < 24 && w.pos < len(w.data); step++ {
			switch op := w.pick(7); op {
			case 0: // insert: atomic, so one known or repeated id rejects the batch
				docs := batch()
				dup, seen := false, map[string]bool{}
				for _, d := range docs {
					_, stored := s.pos[d.ID()]
					dup = dup || stored || seen[d.ID()]
					seen[d.ID()] = true
				}
				if err := col.InsertMany(docs); (err != nil) != dup {
					t.Fatalf("step %d: insert of %v: err %v, shadow expects duplicate=%v", step, idsOf(docs), err, dup)
				}
				if !dup {
					s.insert(docs)
				}
			case 1: // upsert (ids unique within the batch)
				seen := map[string]bool{}
				var docs []Document
				for _, d := range batch() {
					if !seen[d.ID()] {
						seen[d.ID()] = true
						docs = append(docs, d)
					}
				}
				if _, err := col.UpsertMany(docs); err != nil {
					t.Fatalf("step %d: upsert: %v", step, err)
				}
				s.upsert(docs)
			case 2, 3: // update, delete
				flt := w.filter(2)
				matched := len(naiveQuery(s.docs, Query{Filter: flt}))
				if op == 2 {
					set := Document{"a": w.value(), "b": w.value()}
					if n := col.Update(flt, set); n != matched {
						t.Fatalf("step %d: Update(%#v) changed %d, shadow %d", step, flt, n, matched)
					}
					s.update(flt, set)
				} else {
					if n := col.Delete(flt); n != matched {
						t.Fatalf("step %d: Delete(%#v) removed %d, shadow %d", step, flt, n, matched)
					}
					s.delete(flt)
				}
			case 4:
				if field := w.field(); w.pick(2) == 0 {
					col.EnsureIndex(field)
				} else {
					col.EnsureSortedIndex(field)
				}
			default: // 5: compact and reopen, 6: reopen (replays every delete)
				if opts == nil {
					continue
				}
				if op == 5 {
					if err := db.Compact(); err != nil {
						t.Fatalf("step %d: compact: %v", step, err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
				if db, err = Open(opts...); err != nil {
					t.Fatalf("step %d: reopen: %v", step, err)
				}
				col = db.Collection("fuzz")
				takeCursor() // positions belong to one Collection value
			}

			what := fmt.Sprintf("step %d", step)
			var tail []string
			if _, _, rw := col.ForEachSince(cur.pos, func(d Document) { tail = append(tail, d.ID()) }); rw != cur.rw {
				takeCursor() // rewritten: the position means nothing any more
			} else {
				mustEqualIDs(t, what+" documents since the cursor", tail, idsOf(s.docs[cur.shadowLen:]))
				if step%3 == 2 {
					takeCursor()
				}
			}
			checkStorageInvariants(t, step, col)
			mustEqualIDs(t, what+" storage order", idsOf(col.Find(Query{})), idsOf(s.docs))
			if col.Count() != len(s.docs) {
				t.Fatalf("%s: Count %d, shadow %d", what, col.Count(), len(s.docs))
			}
			q := Query{Filter: w.filter(2), Skip: w.pick(3), Limit: w.pick(4)}
			if w.pick(2) == 0 {
				q.SortBy, q.SortDesc = w.field(), w.pick(2) == 0
			}
			mustEqualIDs(t, fmt.Sprintf("%s query %+v", what, q), idsOf(col.Find(q)), idsOf(naiveQuery(s.docs, q)))
		}
	})
}
