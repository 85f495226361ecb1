package docdb

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestJournalConcurrentAppend drives the §4.2.2 fault-tolerant batch path
// from many goroutines at once: concurrent InsertMany batches interleaved
// with Flush and Compact. Run under -race (the verify.sh tier-2 pass does)
// this is the regression proof that the log pointer and the buffered
// shard writers are properly serialized against Compact's shard swaps and
// InsertMany's appends.
func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const (
		writers = 8
		batches = 25
		perB    = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Collection("events")
			for b := 0; b < batches; b++ {
				docs := make([]Document, perB)
				for i := range docs {
					docs[i] = Document{
						"_id":    fmt.Sprintf("w%d-b%d-i%d", w, b, i),
						"writer": w,
						"batch":  b,
					}
				}
				if err := c.InsertMany(docs); err != nil {
					t.Errorf("InsertMany: %v", err)
					return
				}
				if b%5 == 0 {
					if err := db.Flush(); err != nil {
						t.Errorf("Flush: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Compact concurrently with the writers: the shard swap must not race
	// the appends.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := db.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	want := writers * batches * perB
	if got := db.Collection("events").Count(); got != want {
		t.Fatalf("in-memory count = %d, want %d", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen and replay: every batch logged before the final flush must
	// survive. Compaction plus Close's flush means everything survives.
	db2, err := Open(WithPath(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := db2.Close(); err != nil {
			t.Errorf("close reopened db: %v", err)
		}
	}()
	if got := db2.Collection("events").Count(); got != want {
		t.Fatalf("replayed count = %d, want %d", got, want)
	}
}

// TestCloseConcurrentWithInsert pins the Close race: Close detaches the
// log pointer while writers are mid-append. The data outcome is
// unspecified (late appends may hit the closed log) but there must be no
// torn pointer read — -race fails on an unguarded pointer.
func TestCloseConcurrentWithInsert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race")
	db, err := Open(WithPath(path))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Collection("c")
			for i := 0; i < 50; i++ {
				// Errors are fine once the log is closed; only the
				// race-detector verdict matters here.
				_ = c.Insert(Document{"_id": fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
}
