package docdb

// Zero-copy iteration. Find clones every result because its callers hold on
// to the documents; aggregation-style consumers (Aggregate, the selection
// engine, the experiments layer) only *read* a few fields per document, so
// cloning is pure allocation overhead. ForEach gives them a cursor over the
// stored documents under the read lock instead.

// ForEach streams matching documents to fn in query order (the same planner
// and ordering as Find) until fn returns false, and reports how many
// documents fn saw. It runs under the collection's read lock and passes the
// *stored* documents without cloning, so fn must treat them as frozen:
//
//   - fn must not mutate the document or anything reachable from it;
//   - fn must not retain the document (or nested maps/slices) after
//     returning — copy the fields it needs instead;
//   - fn must not call back into the collection or its DB (the read lock is
//     held; Insert/Update/Delete would deadlock and Find would re-enter).
//
// Query.Project is ignored: fn reads fields straight from the document.
func (c *Collection) ForEach(q Query, fn func(Document) bool) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := 0
	for _, d := range c.collectLocked(q) {
		seen++
		if !fn(d) {
			break
		}
	}
	return seen
}

// ForEachSince is the arrival cursor: it streams the stored documents at
// storage positions >= pos to fn, in storage order, and returns the position
// after the last slot together with Generation and RewriteGeneration, all
// three read under the one read lock — so the returned generation is exactly
// the state fn saw. An incremental consumer keeps (next, rewriteGen) and
// passes next back in; while the rewriteGen it gets back equals the one it
// kept, the collection has only grown by appends (tombstone trims and
// squeezes happen only inside Delete, which moves RewriteGeneration, as do
// Update and upsert replacement), so the documents streamed are exactly the
// ones stored since. When it differs, positions taken before the rewrite mean
// nothing and the consumer must discard what it folded and restart from 0
// (a pos beyond the end streams nothing). fn is bound by the ForEach
// contract above: it must neither mutate, retain, nor call back.
func (c *Collection) ForEachSince(pos int, fn func(Document)) (next int, gen, rewriteGen int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := max(pos, 0); i < len(c.docs); i++ {
		if d := c.docs[i]; d != nil { // a tombstone below a cursor taken at 0
			fn(d)
		}
	}
	return len(c.docs), c.gen.Load(), c.rewriteGen.Load()
}
