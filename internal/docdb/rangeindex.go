package docdb

// Ordered (range) indexes: a sorted projection of one field over the whole
// collection, serving three planner paths that a hash index cannot:
//
//   - range predicates (Lt/Lte/Gt/Gte, and Eq as a degenerate range),
//   - index-ordered scans for SortBy on the indexed field, streaming
//     top-K results without sorting the collection,
//   - reverse scans for SortDesc.
//
// Maintenance is amortised, two-level (a small LSM): mutations append to a
// pending buffer or tombstone into a dead set, and every mutating operation
// settles the index before releasing the write lock — re-sorting pending
// and, when a buffer outgrows its (geometric) threshold, merging into the
// sorted entries slice. Queries run under the read lock and never mutate
// the index: they binary-search entries, skip dead tombstones, and fold in
// the pending buffer, which the settle invariant keeps sorted.
//
// Every document gets an entry: a missing field keys as nil, exactly how
// the sort comparators treat it, so an index-ordered scan reproduces the
// engine's full sort order (key, then _id).

import "sort"

// sortedEntry is one (key, id) pair of a sorted index. It is comparable,
// which the dead-tombstone set relies on.
type sortedEntry struct {
	key sortKey
	id  string
}

// entryLess is the index order: key, then _id — the same total order the
// sort comparators use, so index scans and in-memory sorts agree on ties.
func entryLess(a, b sortedEntry) bool {
	if c := compareKeys(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.id < b.id
}

// entrySlice implements sort.Interface concretely: index maintenance is on
// the insert path, and sort.Sort on a concrete type avoids sort.Slice's
// reflection-based swaps.
type entrySlice []sortedEntry

func (s entrySlice) Len() int           { return len(s) }
func (s entrySlice) Less(i, j int) bool { return entryLess(s[i], s[j]) }
func (s entrySlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// pendingMax is the floor of the pending-buffer merge threshold; the
// effective threshold is max(pendingMax, len(entries)/4) so bulk loading
// merges O(log n) times instead of once per batch.
const pendingMax = 256

// sortedIndex is an ordered index over one field. It has no lock of its
// own: the owning Collection's mu guards it (reads under RLock touch only
// entries/pending/dead without mutating).
type sortedIndex struct {
	field   *fieldPath
	entries []sortedEntry // sorted by (key, id); may contain dead entries
	// pending holds recent adds. It is sorted between mutations (the
	// settleLocked invariant) and bounded by max(pendingMax, entries/4).
	pending []sortedEntry
	// pendingSorted is the length of the sorted prefix of pending; adds
	// grow an unsorted tail that settleLocked folds back in.
	pendingSorted int
	// scratch is the spare buffer the pending merge ping-pongs with, so
	// steady-state settling allocates nothing.
	scratch []sortedEntry
	dead    map[sortedEntry]struct{} // tombstones for entries
}

// EnsureSortedIndex creates an ordered index on a field (idempotent), the
// range-query and sorted-scan counterpart of EnsureIndex. Existing
// documents are indexed immediately; inserts, updates and deletes maintain
// the index from then on.
func (c *Collection) EnsureSortedIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sorted == nil {
		c.sorted = map[string]*sortedIndex{}
	}
	if _, ok := c.sorted[field]; ok {
		return
	}
	si := &sortedIndex{field: compilePath(field), dead: map[sortedEntry]struct{}{}}
	si.entries = make([]sortedEntry, 0, len(c.docs)-c.dead)
	for _, d := range c.docs {
		if d != nil {
			si.entries = append(si.entries, si.entryFor(d))
		}
	}
	sort.Sort(entrySlice(si.entries))
	c.sorted[field] = si
}

// SortedIndexes lists the fields with ordered indexes in sorted order.
func (c *Collection) SortedIndexes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.sorted))
	for f := range c.sorted {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// entryFor projects a document onto the index.
func (si *sortedIndex) entryFor(d Document) sortedEntry {
	v, ok := d.lookupFP(si.field)
	return sortedEntry{key: keyOf(v, ok), id: d.ID()}
}

// addLocked registers a document; the collection's write lock is held.
func (si *sortedIndex) addLocked(d Document) {
	si.pending = append(si.pending, si.entryFor(d))
}

// removeLocked unregisters a document. An entry still in the pending
// buffer is removed directly (so dead only ever tombstones merged
// entries); otherwise it is tombstoned for the next merge.
func (si *sortedIndex) removeLocked(d Document) {
	e := si.entryFor(d)
	for i := len(si.pending) - 1; i >= 0; i-- {
		if si.pending[i] == e {
			si.pending = append(si.pending[:i], si.pending[i+1:]...)
			if i < si.pendingSorted {
				si.pendingSorted-- // splicing a sorted-prefix entry keeps order
			}
			return
		}
	}
	si.dead[e] = struct{}{}
}

// settleLocked restores the read invariants after a mutation, before the
// write lock is released: pending is re-sorted (reads fold it in without
// copying), and when pending outgrows max(pendingMax, entries/4) — or dead
// outgrows half of entries — both are merged into entries. The geometric
// pending threshold makes bulk loading cost O(n log n) amortised rather
// than one O(n) merge per insert batch.
func (si *sortedIndex) settleLocked() {
	if si.pendingSorted < len(si.pending) {
		// Sort only the unsorted tail, then merge the two sorted runs into
		// the reused scratch buffer: cheaper than re-sorting the whole
		// buffer every batch, and allocation-free once warm.
		tail := si.pending[si.pendingSorted:]
		sort.Sort(entrySlice(tail))
		if si.pendingSorted > 0 {
			merged := mergeRunsInto(si.scratch[:0], si.pending[:si.pendingSorted], tail)
			si.scratch = si.pending
			si.pending = merged
		}
		si.pendingSorted = len(si.pending)
	}
	limit := pendingMax
	if g := len(si.entries) / 4; g > limit {
		limit = g
	}
	if len(si.pending) <= limit && len(si.dead) <= len(si.entries)/2 {
		return
	}
	si.mergeLocked()
}

// mergeRunsInto merges two sorted runs, appending to out.
func mergeRunsInto(out, a, b []sortedEntry) []sortedEntry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if entryLess(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeLocked rebuilds entries as the merge of (entries - dead) with the
// already-sorted pending buffer. O(len(entries) + len(pending)).
func (si *sortedIndex) mergeLocked() {
	merged := make([]sortedEntry, 0, len(si.entries)+len(si.pending)-len(si.dead))
	i, j := 0, 0
	for i < len(si.entries) || j < len(si.pending) {
		if i < len(si.entries) {
			if _, gone := si.dead[si.entries[i]]; gone {
				delete(si.dead, si.entries[i])
				i++
				continue
			}
		}
		switch {
		case j >= len(si.pending):
			merged = append(merged, si.entries[i])
			i++
		case i >= len(si.entries):
			merged = append(merged, si.pending[j])
			j++
		case entryLess(si.entries[i], si.pending[j]):
			merged = append(merged, si.entries[i])
			i++
		default:
			merged = append(merged, si.pending[j])
			j++
		}
	}
	si.entries = merged
	si.pending = nil
	si.pendingSorted = 0
	si.scratch = nil
	si.dead = map[sortedEntry]struct{}{}
}

// iterLocked streams the index's live entries in (key, id) order — reverse
// when desc — resolving each to its document, until fn returns false.
// Callers hold at least the read lock; pending is sorted (the settleLocked
// invariant), so the iteration is a plain two-way merge.
func (si *sortedIndex) iterLocked(c *Collection, desc bool, fn func(Document) bool) {
	pend := si.pending
	emit := func(e sortedEntry) bool {
		i, ok := c.byID[e.id]
		if !ok {
			return true // tombstoned out from under us; skip
		}
		return fn(c.docs[i])
	}
	if !desc {
		i, j := 0, 0
		for i < len(si.entries) || j < len(pend) {
			if i < len(si.entries) {
				if _, gone := si.dead[si.entries[i]]; gone {
					i++
					continue
				}
			}
			var e sortedEntry
			switch {
			case j >= len(pend):
				e = si.entries[i]
				i++
			case i >= len(si.entries):
				e = pend[j]
				j++
			case entryLess(si.entries[i], pend[j]):
				e = si.entries[i]
				i++
			default:
				e = pend[j]
				j++
			}
			if !emit(e) {
				return
			}
		}
		return
	}
	i, j := len(si.entries)-1, len(pend)-1
	for i >= 0 || j >= 0 {
		if i >= 0 {
			if _, gone := si.dead[si.entries[i]]; gone {
				i--
				continue
			}
		}
		var e sortedEntry
		switch {
		case j < 0:
			e = si.entries[i]
			i--
		case i < 0:
			e = pend[j]
			j--
		case entryLess(pend[j], si.entries[i]):
			e = si.entries[i]
			i--
		default:
			e = pend[j]
			j--
		}
		if !emit(e) {
			return
		}
	}
}

// Range bounds ----------------------------------------------------------

// keyBounds is a half-open-or-closed interval in the engine's total order.
type keyBounds struct {
	lo, hi       sortKey
	hasLo, hasHi bool
	loInc, hiInc bool
}

// tightenLo/tightenHi intersect a new bound into the interval.
func (b *keyBounds) tightenLo(k sortKey, inclusive bool) {
	if !b.hasLo {
		b.lo, b.loInc, b.hasLo = k, inclusive, true
		return
	}
	switch c := compareKeys(k, b.lo); {
	case c > 0:
		b.lo, b.loInc = k, inclusive
	case c == 0 && !inclusive:
		b.loInc = false
	}
}

func (b *keyBounds) tightenHi(k sortKey, inclusive bool) {
	if !b.hasHi {
		b.hi, b.hiInc, b.hasHi = k, inclusive, true
		return
	}
	switch c := compareKeys(k, b.hi); {
	case c < 0:
		b.hi, b.hiInc = k, inclusive
	case c == 0 && !inclusive:
		b.hiInc = false
	}
}

// contains reports whether a key falls inside the interval.
func (b keyBounds) contains(k sortKey) bool {
	if b.hasLo {
		c := compareKeys(k, b.lo)
		if c < 0 || (c == 0 && !b.loInc) {
			return false
		}
	}
	if b.hasHi {
		c := compareKeys(k, b.hi)
		if c > 0 || (c == 0 && !b.hiInc) {
			return false
		}
	}
	return true
}

// rangeLocked returns the live documents whose index key falls inside the
// bounds, in insertion (storage) order — unsorted Find results follow
// candidate order, and the seed engine's contract is storage order.
// Callers hold at least the read lock and re-check the full filter.
func (si *sortedIndex) rangeLocked(c *Collection, b keyBounds) []Document {
	// Binary-search the sorted entries for the interval.
	lo := 0
	if b.hasLo {
		lo = sort.Search(len(si.entries), func(i int) bool {
			cmp := compareKeys(si.entries[i].key, b.lo)
			if b.loInc {
				return cmp >= 0
			}
			return cmp > 0
		})
	}
	hi := len(si.entries)
	if b.hasHi {
		hi = sort.Search(len(si.entries), func(i int) bool {
			cmp := compareKeys(si.entries[i].key, b.hi)
			if b.hiInc {
				return cmp > 0
			}
			return cmp >= 0
		})
	}
	var positions []int
	for i := lo; i < hi; i++ {
		e := si.entries[i]
		if _, gone := si.dead[e]; gone {
			continue
		}
		if di, ok := c.byID[e.id]; ok {
			positions = append(positions, di)
		}
	}
	for _, e := range si.pending {
		if !b.contains(e.key) {
			continue
		}
		if di, ok := c.byID[e.id]; ok {
			positions = append(positions, di)
		}
	}
	sort.Ints(positions)
	out := make([]Document, len(positions))
	for i, di := range positions {
		out[i] = c.docs[di]
	}
	return out
}

// Planner extraction ----------------------------------------------------

// lookupRangeLocked returns candidate documents via an ordered index when
// the filter is (or its top-level And contains) a range or equality
// predicate on a sorted-indexed field. All predicates on the chosen field
// are folded into one interval; the caller re-checks the full filter.
// Callers hold at least the read lock.
func (c *Collection) lookupRangeLocked(f Filter) ([]Document, bool) {
	if len(c.sorted) == 0 {
		return nil, false
	}
	var preds []cmpFilter
	collectRangePreds(f, &preds)
	for _, p := range preds {
		si, ok := c.sorted[p.field]
		if !ok {
			continue
		}
		var b keyBounds
		for _, q := range preds {
			if q.field != p.field {
				continue
			}
			k := keyOf(q.value, true)
			switch q.op {
			case opEq:
				b.tightenLo(k, true)
				b.tightenHi(k, true)
			case opGt:
				b.tightenLo(k, false)
			case opGte:
				b.tightenLo(k, true)
			case opLt:
				b.tightenHi(k, false)
			case opLte:
				b.tightenHi(k, true)
			}
		}
		return si.rangeLocked(c, b), true
	}
	return nil, false
}

// collectRangePreds gathers indexable comparison predicates: a bare
// cmpFilter, or cmpFilters conjoined by top-level Ands (other conjuncts
// are re-checked by the full filter).
func collectRangePreds(f Filter, out *[]cmpFilter) {
	switch t := unwrapFilter(f).(type) {
	case cmpFilter:
		if t.op != opNe {
			*out = append(*out, t)
		}
	case andFilter:
		for _, sub := range t {
			collectRangePreds(sub, out)
		}
	}
}
