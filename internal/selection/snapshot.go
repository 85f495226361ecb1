package selection

// Snapshot-based serving (see docs/SERVING.md). The engine's hot path —
// Select behind /api/paths and /api/intent — serves from an immutable
// snapshot of per-path running aggregates published via an atomic pointer:
//
//   - a Select at a current generation is a lock-free pointer load plus
//     per-request filtering/scoring — O(candidates), not O(stats docs);
//   - a Select at a stale generation refreshes first. Refresh is by arrival:
//     the snapshot keeps the stats collection's storage position it has
//     folded up to, and the next refresh folds exactly the documents stored
//     since (docdb.ForEachSince) into copies of the aggregates they touch —
//     cost scales with the NEW documents, whatever their timestamps, not
//     with history or catalogue;
//   - refreshes are single-flight and read-your-writes: N concurrent
//     requests at a stale generation trigger one refresh, the others wait
//     for it, and no request is handed a snapshot older than the generation
//     pair it read on entry.
//
// Correctness against the uncached engine is pinned by the randomized
// oracle in snapshot_test.go: cached Select results are deep-equal to
// selectUncached (oracle_test.go) across interleavings of writes and reads.

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
)

// pathAgg is one path's running aggregate: identity and geo annotation
// computed once per rebuild, plus the metric sums a fold extends. The fold
// order is the collection's storage order on every refresh, so the
// floating-point sums are bit-identical to the uncached per-path aggregation.
type pathAgg struct {
	// id carries the candidate's identity fields (PathID, ServerID, Hops,
	// ISDs, Sequence) and geo annotation; its metric fields stay zero.
	id Candidate
	// hops caches per-hop exclusion metadata so sovereignty filters are
	// pure hash-set probes at request time.
	hops []hopMeta
	// links/transit are the path's hop-level overlap keys (directed
	// AS-pair links and interior ASes, see pathset.go), computed once per
	// rebuild and shared by every copy a fold makes, so
	// SelectSet's penalty arithmetic is pure integer-set probes at request
	// time.
	links   []uint64
	transit []uint64

	samples                                  int
	latSum, mdevSum, lossSum, upSum, downSum float64
	latN, mdevN, lossN, upN, downN           int
}

// hopMeta is the request-time view of one traversed AS.
type hopMeta struct {
	ia       string // canonical IA rendering, matched against ExcludeASes
	country  string // lower-cased; valid only when known
	operator string // lower-cased; valid only when known
	known    bool   // the AS exists in the topology
}

// fold accumulates one stats document, mirroring the uncached oracle's
// per-path aggregation (oracle_test.go) exactly.
func (a *pathAgg) fold(d docdb.Document) {
	a.samples++
	if v, ok := num(d[measure.FAvgLatency]); ok {
		a.latSum += v
		a.latN++
	}
	if v, ok := num(d[measure.FMdev]); ok {
		a.mdevSum += v
		a.mdevN++
	}
	if v, ok := num(d[measure.FLoss]); ok {
		a.lossSum += v
		a.lossN++
	}
	if v, ok := num(d[measure.FBwUpMTU]); ok {
		a.upSum += v
		a.upN++
	}
	if v, ok := num(d[measure.FBwDownMTU]); ok {
		a.downSum += v
		a.downN++
	}
}

// metrics is the pointer-free request-time view of an aggregate: the sample
// count and the five means. Filtering and ranking run over this value on the
// stack; a Candidate is built only for the paths a request returns.
type metrics struct {
	samples                                      int
	latencyMs, jitterMs, lossPct, upBps, downBps float64
}

// metrics derives the means, with the same arithmetic (and so the same
// float results) as the uncached per-path aggregation.
func (a *pathAgg) metrics() metrics {
	m := metrics{samples: a.samples, latencyMs: math.Inf(1), jitterMs: math.Inf(1)}
	if a.latN > 0 { // else never answered: infinitely slow
		m.latencyMs = a.latSum / float64(a.latN)
	}
	if a.mdevN > 0 {
		m.jitterMs = a.mdevSum / float64(a.mdevN)
	}
	if a.lossN > 0 {
		m.lossPct = a.lossSum / float64(a.lossN)
	}
	if a.upN > 0 {
		m.upBps = a.upSum / float64(a.upN)
	}
	if a.downN > 0 {
		m.downBps = a.downSum / float64(a.downN)
	}
	return m
}

// candidate materialises the aggregate with the score it was ranked under.
func (a *pathAgg) candidate(score float64) Candidate {
	m := a.metrics()
	c := a.id // identity + geo; slices are shared and must not be mutated
	c.Samples = m.samples
	c.AvgLatencyMs, c.JitterMs, c.AvgLossPct = m.latencyMs, m.jitterMs, m.lossPct
	c.UpBps, c.DownBps = m.upBps, m.downBps
	c.Score = score
	return c
}

// destAggs is what a snapshot serves for one destination.
type destAggs struct {
	// version is the refresh (snapshot.seq) that last changed this
	// destination's aggregates; a response cache keys its validity on it.
	version int64
	aggs    []*pathAgg // in PathsForServer order
}

// pathLoc places a path id in its destination's aggregate slice.
type pathLoc struct {
	server, slot int
}

// snapshot is one immutable, atomically-published view of the serving
// state. Readers never mutate it; a refresh builds a new one that shares
// everything it did not change and swaps the pointer.
type snapshot struct {
	seq      int64 // ordinal of the refresh that produced it
	pathsGen int64 // paths generation, unchanged across the whole refresh
	// statsGen/statsRW/cursor come from one docdb.ForEachSince call: the
	// snapshot holds exactly the stats documents below storage position
	// cursor, which is exactly the collection at statsGen.
	statsGen int64
	statsRW  int64
	cursor   int
	folded   int // stats documents streamed, including other owners' and unknown paths'

	// index is built once per rebuild and shared, immutable, by every
	// snapshot folded from it; servers is copied only by a fold that touches
	// an owned destination, and then only that destination's pointer slice
	// and the aggregates that changed.
	index   map[string]pathLoc
	servers map[int]destAggs
}

// refreshFlight is one in-progress snapshot refresh.
type refreshFlight struct {
	done chan struct{}
	err  error
}

// SnapshotInfo describes the published serving snapshot, for health
// endpoints and tests (see docs/SERVING.md).
type SnapshotInfo struct {
	StatsGeneration int64
	PathsGeneration int64
	// GenerationLag is how far the collections have moved past the snapshot
	// (in DB-wide generation stamps, both collections summed): 0 when
	// current, positive while writes wait for the next request to fold them.
	GenerationLag int64
	Paths         int
	StatsFolded   int
}

// SnapshotInfo returns the current snapshot's summary; ok is false before
// the first refresh.
func (e *Engine) SnapshotInfo() (SnapshotInfo, bool) {
	s := e.current.Load()
	if s == nil {
		return SnapshotInfo{}, false
	}
	return SnapshotInfo{
		StatsGeneration: s.statsGen,
		PathsGeneration: s.pathsGen,
		GenerationLag:   e.stats.Generation() - s.statsGen + e.paths.Generation() - s.pathsGen,
		Paths:           len(s.index),
		StatsFolded:     s.folded,
	}, true
}

// Version reports the refresh that last changed what the engine serves for
// serverID, refreshing first like a Select would. A response computed after
// this call comes from the same or a later snapshot, so a cache that stores
// it under the version can serve it for as long as Version returns the same
// number: the body may be newer than its label, never older. ok is false
// when the destination has no paths here or the refresh failed.
func (e *Engine) Version(ctx context.Context, serverID int) (version int64, ok bool) {
	snap, err := e.snapshotFor(ctx)
	if err != nil {
		return 0, false
	}
	d, ok := snap.servers[serverID]
	return d.version, ok
}

// snapshotFor returns a serving snapshot no older than the generation pair
// read on entry — every write that returned before the request began is in
// it (read-your-writes). The request leads the refresh, or waits for the one
// in flight and checks again: a flight that began before the request's write
// does not cover it.
func (e *Engine) snapshotFor(ctx context.Context) (*snapshot, error) {
	pathsGen, statsGen := e.paths.Generation(), e.stats.Generation()
	covers := func(s *snapshot) bool {
		return s != nil && s.pathsGen >= pathsGen && s.statsGen >= statsGen
	}
	if s := e.current.Load(); covers(s) {
		return s, nil
	}
	waited := false
	for {
		e.mu.Lock()
		if s := e.current.Load(); covers(s) {
			e.mu.Unlock()
			return s, nil // refreshed while we queued on the mutex, or by the flight we waited for
		}
		f := e.inflight
		if f == nil {
			f = &refreshFlight{done: make(chan struct{})}
			e.inflight = f
			e.mu.Unlock()
			// The flight begins after the entry read, so its result covers it.
			return e.lead(f)
		}
		e.mu.Unlock()
		if !waited {
			waited = true
			e.coalesced.Add(1)
		}
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("selection: select cancelled: %w", ctx.Err())
		}
	}
}

// lead runs the refresh this request was elected for and publishes it.
// Flights are serial and each builds on the published snapshot, so what the
// engine hands out only ever moves forward.
func (e *Engine) lead(f *refreshFlight) (*snapshot, error) {
	snap, err := e.rebuildOrFold(e.current.Load())
	if err == nil {
		e.current.Store(snap)
	}
	f.err = err
	e.mu.Lock()
	e.inflight = nil
	e.mu.Unlock()
	close(f.done)
	return snap, err
}

// rebuildOrFold refreshes from prev: by folding the documents stored since
// prev's cursor when the paths catalogue is unchanged and no stats document
// was rewritten or removed, from an empty catalogue otherwise. What it
// returns is the database at one instant — the one at which fold read the
// stats collection: the paths generation is stamped before the catalogue is
// looked at and checked again afterwards, and a refresh that a paths write
// raced is redone.
func (e *Engine) rebuildOrFold(prev *snapshot) (*snapshot, error) {
	for {
		pathsGen := e.paths.Generation()
		next, err := e.refreshAt(prev, pathsGen)
		if err != nil || e.paths.Generation() == pathsGen {
			return next, err
		}
	}
}

// refreshAt is one attempt at the paths generation the caller stamped.
func (e *Engine) refreshAt(prev *snapshot, pathsGen int64) (*snapshot, error) {
	var seq int64
	if prev != nil {
		if seq = prev.seq; prev.pathsGen == pathsGen {
			if next := e.fold(prev); next.statsRW == prev.statsRW {
				e.folds.Add(1)
				return next, nil
			}
			// A rewrite moved the documents under the cursor: next is void.
		}
	}
	base, err := e.catalogue(pathsGen, seq)
	if err != nil {
		return nil, err
	}
	e.rebuilds.Add(1)
	return e.fold(base), nil
}

// fold returns prev plus the stats documents stored at or after its cursor,
// in storage order (so the floating-point sums are the ones a from-scratch
// pass produces, whatever the documents' timestamps). prev is not modified:
// a destination's pointer slice is copied when the first document for it
// arrives, an aggregate when the first document for that path does; a batch
// for destinations this engine does not own costs one map miss per document.
// The result carries the RewriteGeneration the cursor read; it continues
// prev only if that equals prev's.
func (e *Engine) fold(prev *snapshot) *snapshot {
	next := &snapshot{seq: prev.seq + 1, pathsGen: prev.pathsGen, folded: prev.folded,
		index: prev.index, servers: prev.servers}
	touched := map[int][]*pathAgg{}
	next.cursor, next.statsGen, next.statsRW = e.stats.ForEachSince(prev.cursor, func(d docdb.Document) {
		next.folded++
		pid, _ := d[measure.FPathID].(string)
		loc, ok := prev.index[pid]
		if !ok {
			return
		}
		was := prev.servers[loc.server].aggs
		aggs := touched[loc.server]
		if aggs == nil {
			aggs = slices.Clone(was)
			touched[loc.server] = aggs
		}
		if aggs[loc.slot] == was[loc.slot] {
			cp := *was[loc.slot] // sums copied; identity slices shared (immutable)
			aggs[loc.slot] = &cp
		}
		aggs[loc.slot].fold(d)
	})
	if len(touched) > 0 {
		next.servers = maps.Clone(prev.servers)
		for sid, aggs := range touched {
			next.servers[sid] = destAggs{version: next.seq, aggs: aggs}
		}
	}
	return next
}

// catalogue decodes the paths collection and annotates it once: a snapshot
// with empty aggregates and cursor 0 for fold to fill, every destination
// stamped with the version fold is about to give the result.
func (e *Engine) catalogue(pathsGen, seq int64) (*snapshot, error) {
	pds, err := measure.AllPaths(e.db)
	if err != nil {
		return nil, err
	}
	snap := &snapshot{
		seq:      seq,
		pathsGen: pathsGen,
		index:    make(map[string]pathLoc, len(pds)),
		servers:  make(map[int]destAggs),
	}
	for i := range pds {
		pd := &pds[i]
		if e.owns != nil && !e.owns(pd.ServerID) {
			// A sharded engine keeps only its own destinations: annotation,
			// index and every later fold scale with the shard's share of the
			// catalogue, not with the whole of it.
			continue
		}
		agg := &pathAgg{id: Candidate{
			PathID:   pd.ID,
			ServerID: pd.ServerID,
			Hops:     pd.Hops,
			ISDs:     pd.ISDs,
			Sequence: pd.Sequence,
		}}
		e.annotateGeo(&agg.id)
		agg.hops = e.hopMetas(pd.Sequence)
		agg.links, agg.transit = overlapKeys(agg.hops)
		d := snap.servers[pd.ServerID]
		snap.index[pd.ID] = pathLoc{server: pd.ServerID, slot: len(d.aggs)}
		snap.servers[pd.ServerID] = destAggs{version: seq + 1, aggs: append(d.aggs, agg)}
	}
	return snap, nil
}

// hopMetas precomputes the exclusion-filter view of a path's hops.
func (e *Engine) hopMetas(seq pathmgr.Sequence) []hopMeta {
	out := make([]hopMeta, len(seq))
	for i, pred := range seq {
		ia := addr.IA{ISD: pred.ISD, AS: pred.AS}
		hm := hopMeta{ia: ia.String()}
		if as := e.topo.AS(ia); as != nil {
			hm.known = true
			hm.country = strings.ToLower(as.Site.Country)
			hm.operator = strings.ToLower(as.Operator)
		}
		out[i] = hm
	}
	return out
}
