package docdb

import (
	"fmt"
	"sort"
)

// applyReplay applies a backend log record without re-journaling it.
// Backends call it (via Open) once per replayed record.
func (db *DB) applyReplay(rec Record) {
	switch rec.Op {
	case "insert":
		c := db.Collection(rec.Collection)
		c.mu.Lock()
		id := rec.Doc.ID()
		if i, dup := c.byID[id]; dup {
			if rec.Replace {
				c.docs[i] = rec.Doc
				c.bumpLocked(true)
			}
			c.mu.Unlock()
			return
		}
		c.byID[id] = len(c.docs)
		c.docs = append(c.docs, rec.Doc)
		c.bumpLocked(false)
		c.mu.Unlock()
	case "delete":
		c := db.Collection(rec.Collection)
		c.mu.Lock()
		if i, ok := c.byID[rec.ID]; ok {
			// No index exists during replay, so docs and byID are all
			// there is to maintain: the same tombstone routine as Delete.
			c.tombstoneLocked(i)
			c.compactLocked()
			c.bumpLocked(true)
		}
		c.mu.Unlock()
	case "drop":
		db.mu.Lock()
		delete(db.collections, rec.Collection)
		db.mu.Unlock()
	}
}

// backendRef snapshots the backend pointer under the DB lock. Concurrent
// Close swaps the pointer; the backend's own locks then serialize appends
// against flush and close, so a holder of a stale reference appends into a
// closed backend's error state rather than racing on the pointer.
func (db *DB) backendRef() Backend {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.backend
}

// Backend reports the storage backend name ("jsonl", "segment") or "" for
// an in-memory database.
func (db *DB) Backend() string {
	b := db.backendRef()
	if b == nil {
		return ""
	}
	return b.Name()
}

// Flush forces buffered log writes to disk. The measurement runner calls
// it after each per-destination batch insert.
func (db *DB) Flush() error {
	b := db.backendRef()
	if b == nil {
		return nil
	}
	return b.Flush()
}

// Close flushes and closes the backend (no-op for in-memory databases).
func (db *DB) Close() error {
	db.mu.Lock()
	b := db.backend
	db.backend = nil
	db.mu.Unlock()
	if b == nil {
		return nil
	}
	return b.Close()
}

// Compact rewrites the log to contain exactly the current state: one
// insert per live document, dropping superseded updates, deletes and
// dropped collections. Long-running monitors call it to keep the log
// proportional to the data rather than to the operation history.
//
// How much the database blocks depends on the backend. A
// CollectionCheckpointer (segment) compacts online: one collection at a
// time under that collection's read lock, so queries everywhere and
// writers on other collections proceed throughout. A LogCheckpointer
// (jsonl) holds the DB write lock across the whole snapshot + swap — all a
// single-file log can offer. Either way a crash mid-compaction leaves a
// consistent log: rewrites go through temp files and atomic renames.
func (db *DB) Compact() error {
	b := db.backendRef()
	if b == nil {
		return fmt.Errorf("docdb: compact: in-memory database has no backend")
	}
	switch cp := b.(type) {
	case CollectionCheckpointer:
		return db.compactPerCollection(b, cp)
	case LogCheckpointer:
		return db.compactWholeLog(cp)
	default:
		return fmt.Errorf("docdb: compact: backend %s supports no checkpoint", b.Name())
	}
}

// compactWholeLog is the stop-the-world path: the DB write-lock is held for
// the whole snapshot + swap. Writers hold the read-lock across mutation +
// append (see InsertMany), so every committed operation is either in the
// snapshot or in the new log.
func (db *DB) compactWholeLog(cp LogCheckpointer) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return cp.CheckpointLog(func(emit func(Record) error) error {
		names := make([]string, 0, len(db.collections))
		for n := range db.collections {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := db.collections[name].emitSnapshot(emit); err != nil {
				return err
			}
		}
		return nil
	})
}

// compactPerCollection is the online path: each collection is checkpointed
// under its own read lock (writers to it wait, nothing else does), then
// shards of dropped collections are swept under the DB read lock (which
// excludes Drop and collection creation, both of which need the write
// lock). A collection created or dropped between the name snapshot and its
// checkpoint is simply skipped or swept respectively — its log records are
// still in its shard, which is correct, just not yet compacted.
func (db *DB) compactPerCollection(b Backend, cp CollectionCheckpointer) error {
	// Surface sticky append errors first: checkpointing a shard whose
	// recent appends were lost would persist a state the caller was never
	// told about.
	if err := b.Flush(); err != nil {
		return err
	}
	for _, name := range db.CollectionNames() {
		db.mu.RLock()
		c := db.collections[name]
		if c == nil {
			db.mu.RUnlock()
			continue
		}
		c.mu.RLock()
		err := cp.CheckpointCollection(name, c.emitSnapshotLocked)
		c.mu.RUnlock()
		db.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return cp.DropStaleShards(func(name string) bool {
		_, ok := db.collections[name]
		return ok
	})
}

// emitSnapshot emits one insert record per live document under the
// collection read lock.
func (c *Collection) emitSnapshot(emit func(Record) error) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.emitSnapshotLocked(emit)
}

// emitSnapshotLocked is emitSnapshot for callers already holding at least
// c.mu.RLock.
func (c *Collection) emitSnapshotLocked(emit func(Record) error) error {
	for _, d := range c.docs {
		if d == nil {
			continue
		}
		if err := emit(Record{Op: "insert", Collection: c.name, Doc: d}); err != nil {
			return err
		}
	}
	return nil
}
