// Package docdb is an embedded document database standing in for the
// MongoDB instance of the paper's architecture (§4.2.1). It keeps the
// properties the paper chose MongoDB for: named collections of
// heterogeneous JSON-like documents, flexible addition of new metrics,
// batched multi-document insertion (the fault-tolerance/scalability
// trade-off of §4.2.2), and a query surface with filters, sorting,
// projection, hash and ordered indexes. Queries are compiled — field paths
// pre-split and comparators type-specialised — and planned against the
// collection's indexes (see docs/DOCDB.md). Persistence is an append-only
// mutation log of CRC-framed binary segments, one shard file per
// collection, replayed on open (see persist.go), so a crash costs at most
// the unflushed batch.
package docdb

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors for errors.Is checks.
var (
	// ErrDuplicateID reports an insert whose _id already exists.
	ErrDuplicateID = errors.New("duplicate _id")
	// ErrBadDocument reports a structurally invalid document (nil, or a
	// non-string _id).
	ErrBadDocument = errors.New("invalid document")
)

// Document is one record in a collection. Values are JSON-compatible:
// string, float64, int, int64, bool, nil, []any, map[string]any, or nested
// Documents. Field paths in queries use dots ("stats.avg_latency_ms").
type Document map[string]any

// Clone returns a deep copy of the document (one level of nesting for maps
// and slices, which covers everything this system stores).
func (d Document) Clone() Document {
	out := make(Document, len(d))
	for k, v := range d {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case Document:
		return t.Clone()
	case map[string]any:
		return Document(t).Clone()
	case []any:
		c := make([]any, len(t))
		for i, e := range t {
			c[i] = cloneValue(e)
		}
		return c
	case []string:
		c := make([]string, len(t))
		copy(c, t)
		return c
	default:
		return v
	}
}

// lookup resolves a dotted field path within the document via the compiled
// path cache.
func (d Document) lookup(path string) (any, bool) {
	return d.lookupFP(compilePath(path))
}

// ID returns the document's "_id" field as a string, or "".
func (d Document) ID() string {
	if v, ok := d["_id"].(string); ok {
		return v
	}
	return ""
}

// DB is a set of named collections guarded for concurrent use.
type DB struct {
	// genSeq issues generation stamps to every collection of this DB. It is
	// atomic (not guarded by mu) and deliberately DB-wide: a collection that
	// is dropped and re-created keeps drawing strictly increasing stamps, so
	// a cached reader can never mistake the new collection for the old one.
	genSeq atomic.Int64

	mu          sync.RWMutex
	collections map[string]*Collection
	backend     *segmentBackend // nil for purely in-memory databases
	failpoint   Failpoint       // nil outside chaos testing (see failpoint.go)
}

// Open creates a database. With no options it is purely in-memory; with
// WithPath it persists in a segment directory, replaying any existing log
// so a restarted test-suite continues with its data — the fault-tolerance
// requirement of §4.1.2. Open refuses a path that exists as anything but a
// directory (leaving it untouched) and a path whose parent directory does
// not exist.
func Open(opts ...Option) (*DB, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	db := &DB{collections: make(map[string]*Collection)}
	// Open runs before the DB is shared, so the guarded fields are writable
	// without the lock here.
	//lint:ignore lockcheck Open runs before the DB is shared, no concurrent access is possible
	db.failpoint = o.Failpoint
	if o.Path == "" {
		return db, nil
	}
	b, err := newSegmentBackend(o.Path, o.Sync)
	if err != nil {
		return nil, err
	}
	if err := b.Replay(o.Failpoint, db.applyReplay); err != nil {
		return nil, err
	}
	//lint:ignore lockcheck Open runs before the DB is shared, no concurrent access is possible
	db.backend = b
	return db, nil
}

// MustOpen is Open for call sites that cannot fail — in-memory databases
// and test fixtures — panicking on error.
func MustOpen(opts ...Option) *DB {
	db, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return db
}

// Collection returns the named collection, creating it on first use, like
// MongoDB's implicit collection creation.
func (db *DB) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		c = &Collection{name: name, byID: make(map[string]int), db: db}
		db.collections[name] = c
	}
	return c
}

// CollectionNames lists existing collections in sorted order.
func (db *DB) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.collections))
	for n := range db.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Drop removes a collection and its documents. Under SyncGroupCommit a
// commit failure is not reported here (sticky log errors surface on the
// next Flush/Close).
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.collections, name)
	if db.backend != nil {
		db.backend.Append(Record{Op: "drop", Collection: name})
		_ = db.backend.Commit()
	}
}

// Collection is a named set of documents with an "_id" unique key. The
// fields above mu are immutable after creation; mu guards everything below
// it (the layout lockcheck enforces).
type Collection struct {
	name string
	db   *DB
	// gen and rewriteGen are the collection's mutation generations. They are
	// atomic — readable without the lock — and are stamped while the write
	// lock is still held, so a reader that observes a stamp and then takes
	// the read lock sees at least that mutation's data.
	gen        atomic.Int64
	rewriteGen atomic.Int64

	mu sync.RWMutex
	// docs is the storage order. A removed document leaves a nil tombstone
	// in its slot (dead counts them) until compactLocked squeezes the slice,
	// so a delete never renumbers the survivors; byID maps only live ids.
	docs    []Document
	dead    int
	byID    map[string]int
	seq     int64 // auto-id counter
	indexes map[string]*index
	sorted  map[string]*sortedIndex
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Generation returns a cheap monotonic stamp that changes on every mutation
// of the collection (insert, upsert, update, delete, journal replay). Two
// equal stamps bracket an unchanged collection, so a cache can validate a
// snapshot with one atomic load instead of re-reading the data. Stamps are
// issued DB-wide: a dropped-and-recreated collection never repeats a stamp
// it handed out before (a fresh collection reads 0 until its first
// mutation).
func (c *Collection) Generation() int64 { return c.gen.Load() }

// RewriteGeneration changes only on mutations that rewrite or remove
// existing documents (Update, Delete, upsert replacement, replayed
// replacements/deletes). While it is unchanged the collection has only
// grown by appended inserts, which is what lets an incremental consumer —
// e.g. the selection engine's snapshot cache — fold just the new tail into
// running aggregates instead of rebuilding from scratch.
func (c *Collection) RewriteGeneration() int64 { return c.rewriteGen.Load() }

// bumpLocked stamps a completed mutation while the caller still holds the
// write lock; destructive marks mutations that rewrote or removed existing
// documents.
func (c *Collection) bumpLocked(destructive bool) {
	g := c.db.genSeq.Add(1)
	if destructive {
		c.rewriteGen.Store(g)
	}
	c.gen.Store(g)
}

// Count returns the number of documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs) - c.dead
}

// Insert stores one document. Documents without an "_id" get a generated
// one. Inserting a duplicate "_id" is an error.
func (c *Collection) Insert(doc Document) error {
	return c.InsertMany([]Document{doc})
}

// InsertMany stores a batch atomically: either every document is inserted
// or none. This is the paper's "multiple insertions of path statistics"
// I/O-overhead optimisation (§4.2.2).
func (c *Collection) InsertMany(docs []Document) error {
	// The DB read-lock is held across the whole operation so Close (which
	// takes the write lock to detach the log) can never interleave between
	// the in-memory mutation and its log append — a batch is either wholly
	// in the log or, once the log is detached, wholly in memory only.
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	b, fp := c.db.backend, c.db.failpoint
	c.mu.Lock()
	defer c.mu.Unlock()
	// Validate the whole batch first (atomicity).
	ids := make([]string, len(docs))
	seen := make(map[string]bool, len(docs))
	seq := c.seq
	for i, doc := range docs {
		if doc == nil {
			return fmt.Errorf("docdb: %s: nil document in batch: %w", c.name, ErrBadDocument)
		}
		id := doc.ID()
		if id == "" {
			if raw, ok := doc["_id"]; ok && raw != nil {
				return fmt.Errorf("docdb: %s: non-string _id %v: %w", c.name, raw, ErrBadDocument)
			}
			seq++
			id = fmt.Sprintf("%s-%d", c.name, seq)
		}
		if _, dup := c.byID[id]; dup || seen[id] {
			return fmt.Errorf("docdb: %s: %w %q", c.name, ErrDuplicateID, id)
		}
		seen[id] = true
		ids[i] = id
	}
	if fp != nil {
		if err := fp.BeforeWrite(c.name, "insert", len(docs)); err != nil {
			return fmt.Errorf("docdb: %s: insert: %w", c.name, err)
		}
	}
	c.seq = seq
	for i, doc := range docs {
		stored := doc.Clone()
		stored["_id"] = ids[i]
		c.byID[ids[i]] = len(c.docs)
		c.docs = append(c.docs, stored)
		c.indexAddLocked(stored)
		if b != nil {
			b.Append(Record{Op: "insert", Collection: c.name, Doc: stored})
		}
	}
	c.maybeMergeSortedLocked()
	if len(docs) > 0 {
		c.bumpLocked(false)
		if b != nil {
			if err := b.Commit(); err != nil {
				return fmt.Errorf("docdb: %s: insert: commit: %w", c.name, err)
			}
		}
	}
	return nil
}

// UpsertMany stores a batch atomically, replacing any existing document
// with the same _id. Unlike InsertMany it requires every document to carry
// an explicit string _id (replacement is meaningless for generated ids).
// It returns how many documents replaced an existing one. This is the
// idempotent batch path the campaign engine uses when resuming: a cell
// re-measured after a crash writes byte-identical documents over the
// partial batch instead of failing on ErrDuplicateID.
func (c *Collection) UpsertMany(docs []Document) (replaced int, err error) {
	// Same lock discipline as InsertMany: the DB read-lock spans mutation +
	// log append so Close never splits a batch.
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	b, fp := c.db.backend, c.db.failpoint
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]bool, len(docs))
	for _, doc := range docs {
		if doc == nil {
			return 0, fmt.Errorf("docdb: %s: nil document in batch: %w", c.name, ErrBadDocument)
		}
		id := doc.ID()
		if id == "" {
			return 0, fmt.Errorf("docdb: %s: upsert requires an explicit _id: %w", c.name, ErrBadDocument)
		}
		if seen[id] {
			return 0, fmt.Errorf("docdb: %s: %w %q within batch", c.name, ErrDuplicateID, id)
		}
		seen[id] = true
	}
	if fp != nil {
		if err := fp.BeforeWrite(c.name, "upsert", len(docs)); err != nil {
			return 0, fmt.Errorf("docdb: %s: upsert: %w", c.name, err)
		}
	}
	for _, doc := range docs {
		stored := doc.Clone()
		id := stored.ID()
		if i, ok := c.byID[id]; ok {
			c.indexRemoveLocked(c.docs[i])
			c.docs[i] = stored
			c.indexAddLocked(stored)
			replaced++
			if b != nil {
				b.Append(Record{Op: "insert", Collection: c.name, Doc: stored, Replace: true})
			}
			continue
		}
		c.byID[id] = len(c.docs)
		c.docs = append(c.docs, stored)
		c.indexAddLocked(stored)
		if b != nil {
			b.Append(Record{Op: "insert", Collection: c.name, Doc: stored})
		}
	}
	c.maybeMergeSortedLocked()
	if len(docs) > 0 {
		c.bumpLocked(replaced > 0)
		if b != nil {
			if err := b.Commit(); err != nil {
				return replaced, fmt.Errorf("docdb: %s: upsert: commit: %w", c.name, err)
			}
		}
	}
	return replaced, nil
}

// Get returns the document with the given _id, or nil.
func (c *Collection) Get(id string) Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i, ok := c.byID[id]; ok {
		return c.docs[i].Clone()
	}
	return nil
}

// Delete removes documents matching the filter and returns how many. A nil
// filter deletes nothing. The cost is proportional to the candidates the
// plan yields plus the documents removed, not to the collection: removed
// slots become tombstones (see compactLocked).
func (c *Collection) Delete(f Filter) int {
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	b := c.db.backend
	c.mu.Lock()
	defer c.mu.Unlock()
	if f == nil {
		return 0
	}
	positions := c.matchPositionsLocked(f)
	if len(positions) == 0 {
		return 0
	}
	removed := make([]Document, len(positions))
	for n, i := range positions {
		d := c.docs[i]
		removed[n] = d
		if b != nil {
			b.Append(Record{Op: "delete", Collection: c.name, ID: d.ID()})
		}
		c.tombstoneLocked(i)
	}
	c.indexRemoveManyLocked(removed)
	c.compactLocked()
	c.maybeMergeSortedLocked()
	c.bumpLocked(true)
	if b != nil {
		// Sticky commit errors surface on the next Flush/Close (Delete
		// reports a count, not an error).
		_ = b.Commit()
	}
	return len(positions)
}

// matchPositionsLocked returns the storage positions of the documents
// matching f, ascending — the order Update and Delete journal in. It plans
// like collectLocked: index candidates are a superset of the matches and
// come back in storage order, so only they are checked and resolved
// through byID; without a usable index every live slot is.
func (c *Collection) matchPositionsLocked(f Filter) []int {
	match := compileMatch(f)
	src := unwrapFilter(f)
	cands, planned := c.lookupIndexedLocked(src)
	if !planned {
		cands, planned = c.lookupRangeLocked(src)
	}
	var positions []int
	if planned {
		for _, d := range cands {
			if match(d) {
				positions = append(positions, c.byID[d.ID()])
			}
		}
		return positions
	}
	for i, d := range c.docs {
		if d != nil && match(d) {
			positions = append(positions, i)
		}
	}
	return positions
}

// tombstoneLocked removes the document at position i from docs and byID
// without moving any other document. Callers maintain the indexes and run
// compactLocked once per operation.
func (c *Collection) tombstoneLocked(i int) {
	delete(c.byID, c.docs[i].ID())
	c.docs[i] = nil
	c.dead++
}

// compactLocked bounds what tombstones cost. Trailing tombstones are
// trimmed at once; interior ones stay until they outnumber the live
// documents, and then one pass squeezes the slice and renumbers byID in
// place. A squeeze of n slots follows at least n/2 removals, so removal is
// O(1) amortised per document, scans visit at most two slots per live
// document, and the relative (storage) order of the survivors never
// changes. The rule is a constant, like the sorted index's pendingMax.
func (c *Collection) compactLocked() {
	n := len(c.docs)
	for n > 0 && c.docs[n-1] == nil {
		n--
	}
	c.dead -= len(c.docs) - n
	c.docs = c.docs[:n]
	if c.dead <= n-c.dead {
		return
	}
	kept := c.docs[:0]
	for _, d := range c.docs {
		if d != nil {
			c.byID[d.ID()] = len(kept)
			kept = append(kept, d)
		}
	}
	clear(c.docs[len(kept):]) // drop the moved documents' old references
	c.docs = kept
	c.dead = 0
}

// Update replaces the non-_id fields of matching documents with the merge
// of the existing document and set, returning how many changed. A nil
// filter updates every document.
func (c *Collection) Update(f Filter, set Document) int {
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	b := c.db.backend
	c.mu.Lock()
	defer c.mu.Unlock()
	positions := c.matchPositionsLocked(f)
	for _, i := range positions {
		d := c.docs[i]
		c.indexRemoveLocked(d)
		for k, v := range set {
			if k == "_id" {
				continue
			}
			d[k] = cloneValue(v)
		}
		c.indexAddLocked(d)
		if b != nil {
			b.Append(Record{Op: "insert", Collection: c.name, Doc: d, Replace: true})
		}
	}
	c.maybeMergeSortedLocked()
	if len(positions) > 0 {
		c.bumpLocked(true)
		if b != nil {
			// As in Delete: commit errors are sticky, reported at Flush/Close.
			_ = b.Commit()
		}
	}
	return len(positions)
}

// Find runs a query and returns matching documents (deep copies). Results
// with SortBy are ordered by the sort field in the engine's total order,
// ties broken by _id (reversed as a whole under SortDesc), so query results
// are deterministic and index-ordered scans agree with in-memory sorts.
func (c *Collection) Find(q Query) []Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	refs := c.collectLocked(q)
	var proj []*fieldPath
	if len(q.Project) > 0 {
		proj = make([]*fieldPath, len(q.Project))
		for i, f := range q.Project {
			proj[i] = compilePath(f)
		}
	}
	out := make([]Document, len(refs))
	for i, d := range refs {
		if proj != nil {
			p := Document{"_id": d.ID()}
			for _, fp := range proj {
				if v, ok := d.lookupFP(fp); ok {
					p[fp.raw] = cloneValue(v)
				}
			}
			out[i] = p
		} else {
			out[i] = d.Clone()
		}
	}
	return out
}

// FindOne returns the first match of the query, or nil.
func (c *Collection) FindOne(q Query) Document {
	q.Limit = 1
	res := c.Find(q)
	if len(res) == 0 {
		return nil
	}
	return res[0]
}

// collectLocked is the query planner: it returns matching document
// references in query order with Skip/Limit applied. Plans, in order:
// hash-index equality, ordered-index range, ordered-index sorted scan,
// full scan. Index candidates are always re-checked against the full
// filter (an index may cover only one conjunct of an And). Callers hold at
// least mu.RLock; the returned documents are the stored ones, not clones.
func (c *Collection) collectLocked(q Query) []Document {
	match := compileMatch(q.Filter)
	src := unwrapFilter(q.Filter)
	if cands, ok := c.lookupIndexedLocked(src); ok {
		return c.shapeLocked(cands, q, match)
	}
	if cands, ok := c.lookupRangeLocked(src); ok {
		return c.shapeLocked(cands, q, match)
	}
	if q.SortBy != "" {
		if si, ok := c.sorted[q.SortBy]; ok {
			return c.orderedScanLocked(si, q, match)
		}
	}
	return c.shapeLocked(c.docs, q, match)
}

// shapeLocked filters candidates and applies sort, skip and limit. With a
// sort and a limit it keeps a top-K heap of skip+limit items instead of
// sorting every match; without a sort it stops scanning at skip+limit.
// cands may be c.docs itself (the full-scan plan), so nil tombstones are
// skipped.
func (c *Collection) shapeLocked(cands []Document, q Query, match matchFn) []Document {
	if q.SortBy == "" {
		need := -1
		if q.Limit > 0 {
			need = q.Skip + q.Limit
		}
		var out []Document
		for _, d := range cands {
			if d == nil || !match(d) {
				continue
			}
			out = append(out, d)
			if need >= 0 && len(out) >= need {
				break
			}
		}
		return applySkipLimit(out, q.Skip, q.Limit)
	}

	sfp := compilePath(q.SortBy)
	k := 0
	if q.Limit > 0 {
		k = q.Skip + q.Limit
	}
	if k > 0 && k < len(cands)/2 {
		h := topKHeap{k: k, desc: q.SortDesc}
		for _, d := range cands {
			if d == nil || !match(d) {
				continue
			}
			v, ok := d.lookupFP(sfp)
			h.push(sortItem{key: keyOf(v, ok), id: d.ID(), doc: d})
		}
		items := h.sorted()
		out := make([]Document, len(items))
		for i, it := range items {
			out[i] = it.doc
		}
		return applySkipLimit(out, q.Skip, q.Limit)
	}

	items := make([]sortItem, 0, len(cands))
	for _, d := range cands {
		if d == nil || !match(d) {
			continue
		}
		v, ok := d.lookupFP(sfp)
		items = append(items, sortItem{key: keyOf(v, ok), id: d.ID(), doc: d})
	}
	desc := q.SortDesc
	sort.Slice(items, func(i, j int) bool {
		cmp := cmpItems(items[i], items[j])
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	out := make([]Document, len(items))
	for i, it := range items {
		out[i] = it.doc
	}
	return applySkipLimit(out, q.Skip, q.Limit)
}

// orderedScanLocked streams the ordered index in sort order, re-checking
// the full filter, and stops as soon as skip+limit matches are in hand —
// the top-K fast path for sorted+limited queries on an indexed field.
func (c *Collection) orderedScanLocked(si *sortedIndex, q Query, match matchFn) []Document {
	need := -1
	if q.Limit > 0 {
		need = q.Skip + q.Limit
	}
	var out []Document
	si.iterLocked(c, q.SortDesc, func(d Document) bool {
		if !match(d) {
			return true
		}
		out = append(out, d)
		return need < 0 || len(out) < need
	})
	return applySkipLimit(out, q.Skip, q.Limit)
}

// applySkipLimit shapes an already-ordered result window.
func applySkipLimit(docs []Document, skip, limit int) []Document {
	if skip > 0 {
		if skip >= len(docs) {
			return nil
		}
		docs = docs[skip:]
	}
	if limit > 0 && len(docs) > limit {
		docs = docs[:limit]
	}
	return docs
}

// sortItem decorates a document with its pre-extracted sort key so
// comparisons never re-resolve the field path.
type sortItem struct {
	key sortKey
	id  string
	doc Document
}

// cmpItems is the engine's result order: sort key, then _id.
func cmpItems(a, b sortItem) int {
	if c := compareKeys(a.key, b.key); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// topKHeap keeps the best k items under the query order; the root is the
// worst item kept, so each push is one comparison for the common
// not-better case.
type topKHeap struct {
	items []sortItem
	k     int
	desc  bool
}

// after reports whether a sorts after b in the result order.
func (h *topKHeap) after(a, b sortItem) bool {
	cmp := cmpItems(a, b)
	if h.desc {
		return cmp < 0
	}
	return cmp > 0
}

func (h *topKHeap) push(it sortItem) {
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.after(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	if !h.after(h.items[0], it) {
		return // not better than the worst kept
	}
	h.items[0] = it
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h.items) && h.after(h.items[l], h.items[worst]) {
			worst = l
		}
		if r < len(h.items) && h.after(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// sorted drains the heap into result order.
func (h *topKHeap) sorted() []sortItem {
	sort.Slice(h.items, func(i, j int) bool { return h.after(h.items[j], h.items[i]) })
	return h.items
}

// Distinct returns the sorted distinct values of a field among matching
// documents, rendered as strings.
func (c *Collection) Distinct(field string, f Filter) []string {
	fp := compilePath(field)
	set := map[string]bool{}
	c.ForEach(Query{Filter: f}, func(d Document) bool {
		if v, ok := d.lookupFP(fp); ok {
			set[fmt.Sprint(v)] = true
		}
		return true
	})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Query combines a filter with result shaping.
type Query struct {
	Filter   Filter
	SortBy   string
	SortDesc bool
	Skip     int
	Limit    int
	// Project restricts returned fields (plus _id). Find-only: the
	// zero-copy ForEach ignores it (callers read fields directly).
	Project []string
}

// Filter matches documents.
type Filter interface {
	Match(Document) bool
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc func(Document) bool

// Match implements Filter.
func (f FilterFunc) Match(d Document) bool { return f(d) }

type cmpOp int

const (
	opEq cmpOp = iota
	opNe
	opGt
	opGte
	opLt
	opLte
)

type cmpFilter struct {
	field string
	op    cmpOp
	value any
}

func (f cmpFilter) Match(d Document) bool {
	v, ok := d.lookup(f.field)
	if !ok {
		// Missing fields only match $ne, like MongoDB.
		return f.op == opNe
	}
	return evalOp(f.op, compareValues(v, f.value))
}

// Eq matches field == value.
func Eq(field string, value any) Filter { return cmpFilter{field, opEq, value} }

// Ne matches field != value (including missing fields).
func Ne(field string, value any) Filter { return cmpFilter{field, opNe, value} }

// Gt matches field > value.
func Gt(field string, value any) Filter { return cmpFilter{field, opGt, value} }

// Gte matches field >= value.
func Gte(field string, value any) Filter { return cmpFilter{field, opGte, value} }

// Lt matches field < value.
func Lt(field string, value any) Filter { return cmpFilter{field, opLt, value} }

// Lte matches field <= value.
func Lte(field string, value any) Filter { return cmpFilter{field, opLte, value} }

type inFilter struct {
	field  string
	values []any
	negate bool
}

func (f inFilter) Match(d Document) bool {
	v, ok := d.lookup(f.field)
	if !ok {
		return f.negate
	}
	for _, w := range f.values {
		if compareValues(v, w) == 0 {
			return !f.negate
		}
	}
	return f.negate
}

// In matches documents whose field equals any of the values.
func In(field string, values ...any) Filter { return inFilter{field, values, false} }

// Nin matches documents whose field equals none of the values.
func Nin(field string, values ...any) Filter { return inFilter{field, values, true} }

type existsFilter struct {
	field string
	want  bool
}

func (f existsFilter) Match(d Document) bool {
	_, ok := d.lookup(f.field)
	return ok == f.want
}

// Exists matches documents that have (or, want=false, lack) the field.
func Exists(field string, want bool) Filter { return existsFilter{field, want} }

type regexFilter struct {
	field string
	re    *regexp.Regexp
}

func (f regexFilter) Match(d Document) bool {
	v, ok := d.lookup(f.field)
	if !ok {
		return false
	}
	s, ok := v.(string)
	if !ok {
		s = fmt.Sprint(v)
	}
	return f.re.MatchString(s)
}

// Regex matches string fields against a compiled pattern. It panics on an
// invalid pattern (programming error, like regexp.MustCompile).
func Regex(field, pattern string) Filter {
	return regexFilter{field, regexp.MustCompile(pattern)}
}

type andFilter []Filter

func (fs andFilter) Match(d Document) bool {
	for _, f := range fs {
		if !f.Match(d) {
			return false
		}
	}
	return true
}

// And matches documents satisfying every sub-filter; And() matches all.
func And(fs ...Filter) Filter { return andFilter(fs) }

type orFilter []Filter

func (fs orFilter) Match(d Document) bool {
	for _, f := range fs {
		if f.Match(d) {
			return true
		}
	}
	return false
}

// Or matches documents satisfying at least one sub-filter; Or() matches none.
func Or(fs ...Filter) Filter { return orFilter(fs) }

type notFilter struct{ f Filter }

func (n notFilter) Match(d Document) bool { return !n.f.Match(d) }

// Not inverts a filter.
func Not(f Filter) Filter { return notFilter{f} }

// ElemMatch matches documents whose array field contains at least one
// element equal to value (used for ISD-set membership queries).
func ElemMatch(field string, value any) Filter {
	fp := compilePath(field)
	return FilterFunc(func(d Document) bool {
		v, ok := d.lookupFP(fp)
		if !ok {
			return false
		}
		switch arr := v.(type) {
		case []any:
			for _, e := range arr {
				if compareValues(e, value) == 0 {
					return true
				}
			}
		case []string:
			for _, e := range arr {
				if compareValues(e, value) == 0 {
					return true
				}
			}
		}
		return false
	})
}

// compareValues orders mixed scalar values: numbers numerically, strings
// lexically, booleans false<true; mismatched kinds order by kind name so
// sorting is total and stable. compareKeys (compile.go) is the same order
// over pre-projected keys; the two must agree on every pair.
func compareValues(a, b any) int {
	na, aNum := toFloat(a)
	nb, bNum := toFloat(b)
	if aNum && bNum {
		return cmpFloat(na, nb)
	}
	sa, aStr := a.(string)
	sb, bStr := b.(string)
	if aStr && bStr {
		return strings.Compare(sa, sb)
	}
	ba, aBool := a.(bool)
	bb, bBool := b.(bool)
	if aBool && bBool {
		switch {
		case !ba && bb:
			return -1
		case ba && !bb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(kindName(a), kindName(b))
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case float32:
		return float64(t), true
	case int:
		return float64(t), true
	case int32:
		return float64(t), true
	case int64:
		return float64(t), true
	case uint:
		return float64(t), true
	case uint64:
		return float64(t), true
	default:
		return 0, false
	}
}

func kindName(v any) string {
	switch v.(type) {
	case nil:
		return "0nil"
	case bool:
		return "1bool"
	case float64, float32, int, int32, int64, uint, uint64:
		return "2number"
	case string:
		return "3string"
	default:
		return fmt.Sprintf("9%T", v)
	}
}
