package docdb

// Fault injection for chaos testing (see docs/CHAOS.md). A Failpoint lets a
// test harness make the storage engine fail on demand — batch writes that
// error before touching any state, log replay that stops early as if the
// file had been truncated — without changing the engine's own code paths.
// BeforeWrite fires in the engine before any state or log is touched, and
// replay consults ReplayEntry once per replayed record (see
// segmentBackend.Replay). Production databases never set one: every hook site is a single nil check
// on a field that is read under a lock the operation already holds, so the
// fast path costs nothing measurable (the BenchmarkDocDB* baselines gate
// this).

// Failpoint injects storage faults. Implementations must be safe for
// concurrent use; the engine may consult one hook from many writers at once.
type Failpoint interface {
	// BeforeWrite is consulted by InsertMany and UpsertMany after the batch
	// has been validated but before any document is stored or logged. op is
	// "insert" or "upsert". Returning a non-nil error aborts the whole
	// batch atomically: the collection, its indexes and the log are left
	// exactly as they were.
	BeforeWrite(collection, op string, batch int) error

	// ReplayEntry is consulted once per log record during replay (install
	// the failpoint with WithFailpoint so it is armed before Open replays),
	// before the record is applied; n counts records from zero, in replay
	// order — shard by shard, in sorted shard order. Returning false stops replay at that point, as if the log
	// had been truncated there — the standard crash model the chaos
	// harness uses. The file itself is left untouched.
	ReplayEntry(n int, op string) bool
}

// SetFailpoint installs (or, with nil, removes) the database's failpoint.
// Install before sharing the DB with writers; the pointer is guarded by the
// DB lock the write paths already take.
func (db *DB) SetFailpoint(fp Failpoint) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.failpoint = fp
}
