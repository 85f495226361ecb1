// Package chaos is a deterministic fault-injection harness for the whole
// measurement pipeline. One seed derives one Plan — a composition of faults
// across every layer the paper's test-suite touches: network weather in the
// simulator (link outages, congestion episodes, AS blackouts), control-plane
// failures in the SCION daemon (failed and stale path lookups), storage
// faults in the document database (rejected writes, journal truncation), and
// campaign-worker crashes with restart/resume. Run executes the faulty
// campaign next to a fault-free-storage oracle; Verify then asserts the
// invariants the rest of the repo promises — see docs/CHAOS.md.
package chaos

import (
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// planHorizon bounds the simulated window network faults are drawn from. It
// covers every cell of the fixed scenario (2 iterations spaced by
// scenarioStride) with slack, so every fault can plausibly intersect a
// measurement.
const planHorizon = 3 * time.Minute

// LookupFaults parameterises the sciond fault hook.
type LookupFaults struct {
	// ErrorPct is the probability that a path lookup fails, decided by a
	// hash of (plan seed, destination, world seed) — deterministic per
	// forked world, therefore transient across a cell's retry attempts.
	ErrorPct float64
	// StaleStart/StaleEnd bound a simulated-time window during which the
	// daemon's segment-expiry refresh is suppressed (stale path service).
	StaleStart, StaleEnd time.Duration
}

// WriteFault fails the Nth write batch to one collection, once.
type WriteFault struct {
	// Collection is the target; plans only ever target the statistics and
	// checkpoint collections. A failed paths write aborts the run — before
	// the campaign has recorded an identity to resume, when it hits the
	// measured destinations' collect — so the next round would restart
	// fresh instead of exercising recovery (measure's own
	// TestPathsWriteErrorAbortsRun covers that fault).
	Collection string
	// Nth is the 1-based ordinal of the failing write across the whole
	// chaotic run (counters persist over crash/restart rounds). Plans keep
	// Nth >= 2 for the checkpoint collection: write #1 is the campaign
	// metadata document, and a run that never manages to record its
	// identity has nothing to resume — it would restart fresh, re-collect
	// paths, and legitimately diverge from the oracle.
	Nth int
}

// Crash kills one campaign round. The log behind it then loses its
// uncommitted suffix, as a crash loses the page cache — never past the
// campaign metadata record (see truncateTail).
type Crash struct {
	// AfterCheckpoints cancels the campaign context once this many writes
	// have hit the checkpoint collection in the round (>= 1).
	AfterCheckpoints int
}

// Plan is one seed's worth of composed faults. Plans are pure data: the
// same seed over the same topology always yields a deep-equal Plan.
type Plan struct {
	Seed    int64
	Network simnet.Schedule
	Lookup  LookupFaults
	Writes  []WriteFault
	Crashes []Crash
}

// NewPlan derives the fault plan for a seed over a topology. Everything is
// drawn from one seeded generator in a fixed order, so the plan — and
// through it the whole chaotic run — is reproducible from the seed alone.
//
//lint:deterministic plan derivation is the seed contract docs/CHAOS.md promises
func NewPlan(seed int64, topo *topology.Topology) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}

	window := func(minDur, maxDur time.Duration) (start, end time.Duration) {
		start = time.Duration(rng.Int63n(int64(planHorizon)))
		end = start + minDur + time.Duration(rng.Int63n(int64(maxDur-minDur)))
		return start, end
	}

	links := topo.Links()
	for i, n := 0, rng.Intn(3); i < n && len(links) > 0; i++ {
		l := links[rng.Intn(len(links))]
		start, end := window(5*time.Second, 45*time.Second)
		p.Network.Outages = append(p.Network.Outages, simnet.LinkOutage{
			A: l.A, B: l.B, Start: start, End: end,
		})
	}

	ases := topo.ASes()
	for i, n := 0, rng.Intn(3); i < n && len(ases) > 0; i++ {
		as := ases[rng.Intn(len(ases))]
		start, end := window(5*time.Second, 45*time.Second)
		p.Network.Episodes = append(p.Network.Episodes, simnet.Episode{
			IA: as.IA, Start: start, End: end, DropProb: 0.1 + 0.6*rng.Float64(),
		})
	}
	if len(ases) > 0 && rng.Intn(2) == 0 {
		as := ases[rng.Intn(len(ases))]
		start, end := window(5*time.Second, 30*time.Second)
		p.Network.Episodes = append(p.Network.Episodes, simnet.Blackout(as.IA, start, end))
	}

	p.Lookup.ErrorPct = []float64{0, 0.15, 0.3}[rng.Intn(3)]
	if rng.Intn(2) == 0 {
		p.Lookup.StaleStart, p.Lookup.StaleEnd = window(10*time.Second, 60*time.Second)
	}

	for i, n := 0, rng.Intn(3); i < n; i++ {
		col := measure.ColStats
		if rng.Intn(2) == 0 {
			col = measure.ColProgress
		}
		p.Writes = append(p.Writes, WriteFault{Collection: col, Nth: 2 + rng.Intn(6)})
	}

	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		after := 1 + rng.Intn(3)
		// This draw once sized a byte budget for the log cut; it stays so
		// every seed keeps the plan it always had.
		_ = rng.Intn(200)
		p.Crashes = append(p.Crashes, Crash{AfterCheckpoints: after})
	}
	return p
}

// LookupHook builds the sciond fault hook for the plan: a pure function of
// (destination, world seed, simulated time), as the daemon requires.
func (p Plan) LookupHook() sciond.FaultHook {
	lf := p.Lookup
	planSeed := p.Seed
	return func(dst addr.IA, seed int64, now time.Duration) sciond.Fault {
		if lf.StaleEnd > lf.StaleStart && now >= lf.StaleStart && now < lf.StaleEnd {
			return sciond.FaultStalePaths
		}
		if lf.ErrorPct > 0 && lookupRoll(planSeed, dst, seed) < lf.ErrorPct {
			return sciond.FaultLookupError
		}
		return sciond.FaultNone
	}
}

// lookupRoll maps (plan seed, destination, world seed) to [0,1) by FNV-64a.
func lookupRoll(planSeed int64, dst addr.IA, worldSeed int64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (56 - 8*i))
		}
		_, _ = h.Write(buf[:])
	}
	put(uint64(planSeed))
	put(uint64(worldSeed))
	_, _ = h.Write([]byte(dst.String()))
	return float64(h.Sum64()%100000) / 100000
}
