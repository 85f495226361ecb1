package docdb

// Persistence. A database opened WithPath keeps an append-only mutation log
// in a segment directory (segment.go owns the files, wal.go the bytes):
// one CRC-framed shard file per collection, commit markers at fsync points,
// group-commit fsync batching and online per-collection compaction. Open
// replays the log; collection write paths append Records under their own
// locks; Compact hands the log one collection snapshot at a time. The
// conformance suite (conformance_test.go) is the contract executable.

import (
	"fmt"
)

// Record is one mutation of the persistence log — the unit the segment log
// appends, replays and checkpoints. Exactly one of Doc/ID is meaningful
// depending on Op.
type Record struct {
	// Op is "insert" (Doc set), "delete" (ID set) or "drop" (whole
	// collection).
	Op         string
	Collection string
	// Doc is the stored document of an insert. The engine encodes each
	// stored document exactly once per mutation: the log serializes Doc
	// straight into its write buffer and does not retain it.
	Doc Document
	// ID is the deleted document's _id.
	ID string
	// Replace marks an insert that overwrites an existing _id (update and
	// upsert journaling).
	Replace bool
}

// SyncPolicy selects when committed batches reach stable storage.
type SyncPolicy int

const (
	// SyncOnFlush (the default) makes data durable at explicit Flush,
	// Close and Compact points only — the measurement runner's contract: a
	// crash costs at most the batches since the last Flush.
	SyncOnFlush SyncPolicy = iota
	// SyncGroupCommit makes every mutating call durable before it returns.
	// The log amortizes the cost by group commit: concurrent batches share
	// one fsync per commit window instead of paying one each.
	SyncGroupCommit
)

// Options configures Open. The zero value is a purely in-memory database.
type Options struct {
	// Path is the segment directory the database persists in. Empty means
	// in-memory. Open creates the directory itself (but not its parent) and
	// refuses a path that exists as anything but a directory.
	Path string
	// Sync is the durability policy for mutating operations.
	Sync SyncPolicy
	// Failpoint is installed before replay, so ReplayEntry can truncate
	// the log and BeforeWrite is armed from the first write (chaos
	// testing; see failpoint.go).
	Failpoint Failpoint
}

// Option mutates Options functional-options style.
type Option func(*Options)

// WithPath persists the database at path (see Options.Path).
func WithPath(path string) Option { return func(o *Options) { o.Path = path } }

// WithSyncPolicy sets the durability policy for mutating operations.
func WithSyncPolicy(p SyncPolicy) Option { return func(o *Options) { o.Sync = p } }

// WithFailpoint installs fp before replay (see Options.Failpoint).
func WithFailpoint(fp Failpoint) Option { return func(o *Options) { o.Failpoint = fp } }

// applyReplay applies a log record without re-journaling it. Open feeds it
// every replayed record.
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

// backendRef snapshots the log pointer under the DB lock. Concurrent Close
// swaps the pointer; the log's own locks then serialize appends against
// flush and close, so a holder of a stale reference appends into a closed
// log's error state rather than racing on the pointer.
func (db *DB) backendRef() *segmentBackend {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.backend
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

// Close flushes and closes the log (no-op for in-memory databases).
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
// Compaction is online. Each collection is checkpointed under its own read
// lock (writers to it wait, nothing else does), so queries everywhere and
// writers on other collections proceed throughout. Shards of dropped
// collections are then swept under the DB read lock, which excludes Drop
// and collection creation (both need the write lock). A collection created
// or dropped between the name snapshot and its checkpoint is simply skipped
// or swept respectively — its log records are still in its shard, which is
// correct, just not yet compacted. A crash mid-compaction leaves a
// consistent log: every rewrite goes through a temp file and an atomic
// rename.
func (db *DB) Compact() error {
	b := db.backendRef()
	if b == nil {
		return fmt.Errorf("docdb: compact: in-memory database has no log")
	}
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
		err := b.CheckpointCollection(name, c.emitSnapshotLocked)
		c.mu.RUnlock()
		db.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return b.DropStaleShards(func(name string) bool {
		_, ok := db.collections[name]
		return ok
	})
}

// emitSnapshotLocked emits one insert record per live document. Callers
// hold at least c.mu.RLock.
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
