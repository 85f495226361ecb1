package docdb

import (
	"fmt"
	"math"
	"sort"
)

// Index is a hash index over one field: equality lookups consult the index
// instead of scanning the collection. This backs the §4.2.1 scalability
// requirement — "a non-relational database can easily store huge quantities
// of data and query them". Its ordered counterpart is sortedIndex
// (rangeindex.go), which serves range predicates and sorted scans.
type index struct {
	field string
	fp    *fieldPath
	// byValue maps the canonical rendering of a field value to document ids.
	byValue map[string][]string
}

func indexKey(v any) string {
	// Normalise numeric types so 6, 6.0, int64(6) — and 1e6 vs 1000000 —
	// share a bucket, in line with compareValues' cross-type equality.
	if f, ok := toFloat(v); ok {
		return "n:" + canonicalNumber(f)
	}
	return fmt.Sprintf("%T:%v", v, v)
}

// groupKey renders a value for user-visible grouping (Aggregate). It shares
// canonicalNumber with indexKey so numerically-equal values always land in
// the same group, whatever Go type they arrived as.
func groupKey(v any) string {
	if f, ok := toFloat(v); ok {
		return canonicalNumber(f)
	}
	return fmt.Sprint(v)
}

// EnsureIndex creates a hash index on a field (idempotent). Existing
// documents are indexed immediately; inserts, updates and deletes maintain
// the index from then on.
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.indexes == nil {
		c.indexes = map[string]*index{}
	}
	if _, ok := c.indexes[field]; ok {
		return
	}
	idx := &index{field: field, fp: compilePath(field), byValue: map[string][]string{}}
	for _, d := range c.docs {
		if d == nil {
			continue
		}
		if v, ok := d.lookupFP(idx.fp); ok {
			k := indexKey(v)
			idx.byValue[k] = append(idx.byValue[k], d.ID())
		}
	}
	c.indexes[field] = idx
}

// Indexes lists hash-indexed fields in sorted order.
func (c *Collection) Indexes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.indexes))
	for f := range c.indexes {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// indexAddLocked/indexRemoveLocked maintain hash and ordered indexes;
// callers hold c.mu (the Locked suffix is the lockcheck calling convention).
func (c *Collection) indexAddLocked(d Document) {
	for _, idx := range c.indexes {
		if v, ok := d.lookupFP(idx.fp); ok {
			k := indexKey(v)
			idx.byValue[k] = append(idx.byValue[k], d.ID())
		}
	}
	for _, si := range c.sorted {
		si.addLocked(d)
	}
}

func (c *Collection) indexRemoveLocked(d Document) {
	for _, idx := range c.indexes {
		v, ok := d.lookupFP(idx.fp)
		if !ok {
			continue
		}
		k := indexKey(v)
		ids := idx.byValue[k]
		for i, id := range ids {
			if id == d.ID() {
				idx.byValue[k] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(idx.byValue[k]) == 0 {
			delete(idx.byValue, k)
		}
	}
	for _, si := range c.sorted {
		si.removeLocked(d)
	}
}

// indexRemoveManyLocked unregisters the documents one Delete removed. Each
// hash bucket they touch is filtered once against the removed ids, keeping
// bucket order — emptying a bucket of n ids through indexRemoveLocked would
// rescan the shrinking bucket n times.
func (c *Collection) indexRemoveManyLocked(docs []Document) {
	if len(c.indexes) > 0 {
		gone := make(map[string]struct{}, len(docs))
		for _, d := range docs {
			gone[d.ID()] = struct{}{}
		}
		for _, idx := range c.indexes {
			touched := map[string]struct{}{}
			for _, d := range docs {
				if v, ok := d.lookupFP(idx.fp); ok {
					touched[indexKey(v)] = struct{}{}
				}
			}
			for k := range touched {
				ids := idx.byValue[k]
				kept := ids[:0]
				for _, id := range ids {
					if _, removed := gone[id]; !removed {
						kept = append(kept, id)
					}
				}
				if len(kept) == 0 {
					delete(idx.byValue, k)
				} else {
					idx.byValue[k] = kept
				}
			}
		}
	}
	for _, si := range c.sorted {
		for _, d := range docs {
			si.removeLocked(d)
		}
	}
}

// maybeMergeSortedLocked settles every ordered index (sorted pending,
// thresholds folded) while the mutation still holds the write lock.
func (c *Collection) maybeMergeSortedLocked() {
	for _, si := range c.sorted {
		si.settleLocked()
	}
}

// lookupIndexedLocked returns candidate documents via a hash index when the
// filter is (or begins with) an equality on an indexed field. The second
// result is false when no index applies and the caller must scan. Callers
// hold c.mu. Results are in storage order — the engine's contract for
// unsorted queries (see rangeLocked). Bucket order alone is not enough: an
// update re-appends the document's id, moving it to the bucket's tail while
// its storage position stays put.
func (c *Collection) lookupIndexedLocked(f Filter) ([]Document, bool) {
	eq, ok := extractEq(f)
	if !ok {
		return nil, false
	}
	idx, ok := c.indexes[eq.field]
	if !ok {
		return nil, false
	}
	ids := idx.byValue[indexKey(eq.value)]
	positions := make([]int, 0, len(ids))
	for _, id := range ids {
		if i, ok := c.byID[id]; ok {
			positions = append(positions, i)
		}
	}
	sort.Ints(positions) // buckets are append-ordered: usually already sorted
	out := make([]Document, len(positions))
	for i, p := range positions {
		out[i] = c.docs[p]
	}
	return out, true
}

// extractEq finds a usable equality predicate: a bare Eq, or an Eq inside a
// top-level And (the remaining conjuncts are re-checked by Match).
func extractEq(f Filter) (cmpFilter, bool) {
	switch t := unwrapFilter(f).(type) {
	case cmpFilter:
		if t.op == opEq {
			return t, true
		}
	case andFilter:
		for _, sub := range t {
			if eq, ok := extractEq(sub); ok {
				return eq, ok
			}
		}
	}
	return cmpFilter{}, false
}

// Aggregation -----------------------------------------------------------

// AggResult summarises one group of an aggregation.
type AggResult struct {
	Key   string
	Count int
	Sum   float64
	Mean  float64
	Min   float64
	Max   float64
}

// Aggregate groups matching documents by the groupField's canonical value
// and reduces valueField numerically per group (documents without a numeric
// valueField count toward Count only). Results are sorted by key. This is
// what the selection engine's mean-per-path queries and the figures' group
// summaries build on. It iterates zero-copy under the read lock: no
// document is cloned.
func (c *Collection) Aggregate(f Filter, groupField, valueField string) []AggResult {
	gfp := compilePath(groupField)
	vfp := compilePath(valueField)
	groups := map[string]*AggResult{}
	c.ForEach(Query{Filter: f}, func(d Document) bool {
		gv, ok := d.lookupFP(gfp)
		if !ok {
			return true
		}
		key := groupKey(gv)
		g := groups[key]
		if g == nil {
			g = &AggResult{Key: key, Min: math.Inf(1), Max: math.Inf(-1)}
			groups[key] = g
		}
		g.Count++
		if v, ok := d.lookupFP(vfp); ok {
			if x, isNum := toFloat(v); isNum {
				g.Sum += x
				g.Min = math.Min(g.Min, x)
				g.Max = math.Max(g.Max, x)
			}
		}
		return true
	})
	out := make([]AggResult, 0, len(groups))
	for _, g := range groups {
		if g.Count > 0 && !math.IsInf(g.Min, 1) {
			g.Mean = g.Sum / float64(g.Count)
		} else {
			g.Min, g.Max = 0, 0
		}
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
