package chaos

import (
	"context"
	"fmt"
	"sync"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
)

// injector implements docdb.Failpoint for one chaotic run. It injects the
// plan's write faults and triggers the current round's crash. Write
// counters and fired flags persist across crash/restart rounds (the plan
// speaks about the run, not about one process lifetime); the crash trigger
// is re-armed per round.
type injector struct {
	plan Plan

	mu          sync.Mutex
	writeCounts map[string]int // per-collection write batches seen, all rounds
	fired       []bool         // plan.Writes[i] already injected
	crashAfter  int            // checkpoint writes until cancel; 0 = disarmed
	ckptWrites  int            // checkpoint writes this round
	cancel      context.CancelFunc
}

func newInjector(plan Plan) *injector {
	return &injector{
		plan:        plan,
		writeCounts: make(map[string]int),
		fired:       make([]bool, len(plan.Writes)),
	}
}

// armCrash configures the round's crash trigger: cancel after n writes to
// the checkpoint collection. n <= 0 disarms (the final round must finish).
func (in *injector) armCrash(n int, cancel context.CancelFunc) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAfter = n
	in.ckptWrites = 0
	in.cancel = cancel
}

// BeforeWrite implements docdb.Failpoint.
func (in *injector) BeforeWrite(collection, op string, batch int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writeCounts[collection]++
	n := in.writeCounts[collection]
	for i, wf := range in.plan.Writes {
		if !in.fired[i] && wf.Collection == collection && wf.Nth == n {
			in.fired[i] = true
			return fmt.Errorf("chaos: injected %s fault on %s (write #%d)", op, collection, n)
		}
	}
	if collection == measure.ColProgress && in.crashAfter > 0 {
		in.ckptWrites++
		if in.ckptWrites >= in.crashAfter {
			// Let this write through, then kill the round: cancellation is
			// honored at cell boundaries, so in-flight cells still finish
			// and checkpoint — the crash point a real SIGKILL cannot pick.
			// The journal damage comes separately from truncateTail.
			in.crashAfter = 0
			in.cancel()
		}
	}
	return nil
}

// ReplayEntry implements docdb.Failpoint. Chaos damages logs physically
// (truncateTail) rather than during replay, so replay always proceeds.
func (in *injector) ReplayEntry(n int, op string) bool { return true }

// truncateTail loses an unsynced log suffix the way a crash would, via the
// backend-aware docdb.TruncateLogTail: up to maxCut bytes off a jsonl
// journal's tail, the entire uncommitted suffix of every segment shard —
// but never past the campaign metadata record. Everything before it
// (server catalogue, the measured destinations' collected paths, campaign
// identity) is written and flushed before the first cell runs, so a real
// crash cannot lose it, and a resume without it would legitimately restart
// fresh and re-collect — a different experiment than the one the oracle
// ran. The paths of the unmeasured destinations are written after the cells
// and may be lost, whole or in part; the resumed run's trailing collect
// re-establishes them.
func truncateTail(path, campaign string, maxCut int) error {
	if err := docdb.TruncateLogTail(path, measure.CampaignMetaID(campaign), maxCut); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}
