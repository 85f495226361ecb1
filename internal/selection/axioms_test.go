package selection

// Axiomatic property suite for SelectSet, after the axiomatic
// path-selection analysis (PAPERS.md): instead of example-based tests, the
// axioms a sound multipath selection strategy must satisfy are checked over
// hundreds of seeded candidate pools generated from topology.GenerateSpec
// worlds. docs/SELECTION.md lists each axiom next to the property test
// that enforces it.
//
//lint:deterministic fixed seeds; every pool and request derives from the loop seed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/topology"
)

const axiomSeeds = 120 // acceptance floor is 100; a margin keeps it honest

// axiomPool is a seeded candidate pool over a generated world: the path
// documents (sequences walking real generated ASes) and per-path stats
// documents, kept around so tests can rebuild engines over arbitrary
// subsets of the pool (the IIA axiom removes candidates and re-selects).
type axiomPool struct {
	topo  *topology.Topology
	sid   int
	paths []docdb.Document
	stats map[string][]docdb.Document // path _id -> its stats docs
}

// newAxiomPool generates a small world and 4–12 candidate paths for one
// destination. Roughly a third of the paths join a "tie group": their
// stats values are copied verbatim from an earlier path, so their
// aggregates — and therefore their scores under every objective — are
// exactly equal, exercising the tie-breaking and disjointness-preference
// behaviour. Some paths omit latency samples entirely (the campaign saw no
// echo replies), exercising the +Inf score branch.
func newAxiomPool(t testing.TB, seed int64) *axiomPool {
	t.Helper()
	topo, err := topology.Generate(topology.GenerateSpec{
		Seed: seed, ISDs: 2, CoresPerISD: 2, NonCorePerISD: 6,
		MaxChildren: 3, CoreDegree: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		t.Fatal(err)
	}
	srvs, err := measure.Servers(db)
	if err != nil || len(srvs) == 0 {
		t.Fatalf("no servers (%v)", err)
	}
	r := rand.New(rand.NewSource(seed))
	sid, dst := srvs[0].ID, srvs[0].Address.IA
	ases := topo.ASes()

	type vals struct {
		n         int
		hasLat    bool
		lat, mdev float64
		loss      float64
		hasBw     bool
		up, down  float64
	}
	p := &axiomPool{topo: topo, sid: sid, stats: map[string][]docdb.Document{}}
	nPaths := 4 + r.Intn(9)
	history := make([]vals, 0, nPaths)
	nowMs := int64(1_700_000_000_000)
	for i := 0; i < nPaths; i++ {
		var v vals
		if i > 0 && r.Intn(3) == 0 { // tie group: exact same aggregates
			v = history[r.Intn(len(history))]
		} else {
			v = vals{
				n:      1 + r.Intn(3),
				hasLat: r.Intn(6) > 0,
				lat:    10 + r.Float64()*150,
				mdev:   r.Float64() * 5,
				loss:   float64(r.Intn(200)) / 10,
				hasBw:  r.Intn(8) > 0,
				up:     1e6 + r.Float64()*1e8,
				down:   1e6 + r.Float64()*1e8,
			}
		}
		history = append(history, v)

		hops := 2 + r.Intn(4)
		seq := ""
		for h := 0; h < hops; h++ {
			seq += ases[r.Intn(len(ases))].IA.String() + " "
		}
		seq += dst.String()
		id := measure.PathID(sid, i)
		p.paths = append(p.paths, docdb.Document{
			"_id":              id,
			measure.FServerID:  sid,
			measure.FPathIndex: i,
			measure.FHops:      hops + 1,
			measure.FSequence:  seq,
			measure.FMTU:       1472,
		})
		for s := 0; s < v.n; s++ {
			nowMs += int64(r.Intn(3))
			d := docdb.Document{
				"_id":              fmt.Sprintf("%s@%d#%d", id, nowMs, s),
				measure.FPathID:    id,
				measure.FServerID:  sid,
				measure.FTimestamp: nowMs,
				measure.FLoss:      v.loss,
			}
			// Every doc in a path carries the same values, so the fold
			// average equals the value exactly and tie groups tie exactly.
			if v.hasLat {
				d[measure.FAvgLatency] = v.lat
				d[measure.FMdev] = v.mdev
			}
			if v.hasBw {
				d[measure.FBwUpMTU] = v.up
				d[measure.FBwDownMTU] = v.down
			}
			p.stats[id] = append(p.stats[id], d)
		}
	}
	return p
}

// engine builds a fresh Engine over the subset of the pool for which keep
// returns true (nil keep = the whole pool).
func (p *axiomPool) engine(t testing.TB, keep func(pathID string) bool, opts ...Option) *Engine {
	t.Helper()
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, p.topo); err != nil {
		t.Fatal(err)
	}
	var pd, sd []docdb.Document
	for _, doc := range p.paths {
		if keep != nil && !keep(doc.ID()) {
			continue
		}
		pd = append(pd, doc)
		sd = append(sd, p.stats[doc.ID()]...)
	}
	if err := db.Collection(measure.ColPaths).InsertMany(pd); err != nil {
		t.Fatal(err)
	}
	if err := db.Collection(measure.ColStats).InsertMany(sd); err != nil {
		t.Fatal(err)
	}
	return New(db, p.topo, opts...)
}

func pathIDs(set PathSet) []string {
	ids := make([]string, len(set.Paths))
	for i, c := range set.Paths {
		ids[i] = c.PathID
	}
	return ids
}

var axiomObjectives = []Objective{LowestLatency, HighestBandwidth, LowestLoss, MostStable}

// TestAxiomSuite drives the per-seed axioms over axiomSeeds generated
// pools: optimality of the top path, K=1 == Best, nesting (each K-set is a
// prefix of the (K+1)-set), set size and uniqueness, determinism across
// engines, and independence of irrelevant alternatives.
func TestAxiomSuite(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for seed := int64(1); seed <= axiomSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			pool := newAxiomPool(t, seed)
			e := pool.engine(t, nil)
			obj := axiomObjectives[seed%int64(len(axiomObjectives))]
			req := Request{Objective: obj}

			best, err := e.Best(ctx, pool.sid, req)
			if err != nil {
				t.Fatal(err)
			}
			ranked, err := e.Select(ctx, pool.sid, req)
			if err != nil {
				t.Fatal(err)
			}

			var prev PathSet
			for k := 1; k <= 4; k++ {
				set, err := e.SelectSet(ctx, pool.sid, SetRequest{Request: req, K: k})
				if err != nil {
					t.Fatal(err)
				}
				// Axiom: optimality of the top path — Paths[0] is Best.
				if set.Paths[0].PathID != best.PathID {
					t.Fatalf("K=%d top path %s != Best %s", k, set.Paths[0].PathID, best.PathID)
				}
				// Axiom: size — min(K, pool), no duplicates.
				if want := min(k, len(ranked)); len(set.Paths) != want {
					t.Fatalf("K=%d returned %d paths, want %d", k, len(set.Paths), want)
				}
				seen := map[string]bool{}
				for _, c := range set.Paths {
					if seen[c.PathID] {
						t.Fatalf("K=%d duplicate path %s", k, c.PathID)
					}
					seen[c.PathID] = true
				}
				// Axiom: K=1 degenerates to exactly Best, trivially disjoint.
				if k == 1 {
					if !reflect.DeepEqual(set.Paths[0], best) {
						t.Fatalf("K=1 candidate differs from Best:\n%+v\n%+v", set.Paths[0], best)
					}
					if set.Disjointness != 1 || set.SharedLinks != 0 || set.SharedASes != 0 {
						t.Fatalf("K=1 set not trivially disjoint: %+v", set)
					}
				}
				// Axiom: nesting — the K-set is a prefix of the (K+1)-set.
				if k > 1 && !reflect.DeepEqual(pathIDs(prev), pathIDs(set)[:len(prev.Paths)]) {
					t.Fatalf("K=%d set %v is not an extension of K=%d set %v",
						k, pathIDs(set), k-1, pathIDs(prev))
				}
				prev = set
			}

			// Axiom: determinism — a fresh engine over the same documents
			// selects the identical set.
			again, err := pool.engine(t, nil).SelectSet(ctx, pool.sid, SetRequest{Request: req, K: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, prev) {
				t.Fatalf("non-deterministic set:\n%+v\n%+v", again, prev)
			}

			checkIIA(t, pool, ranked, prev, req)
		})
	}
}

// checkIIA is the independence-of-irrelevant-alternatives axiom: removing
// candidates that were not selected must not change the selected set. The
// removable candidates are the ones that hold no role in the decision —
// not chosen, and not an anchor of the score normalization frame (the
// minimum or maximum finite score); dropping an anchor legitimately
// rescales every marginal cost (docs/SELECTION.md spells this frame out).
func checkIIA(t *testing.T, pool *axiomPool, ranked []Candidate, set PathSet, req Request) {
	t.Helper()
	chosen := map[string]bool{}
	for _, c := range set.Paths {
		chosen[c.PathID] = true
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range ranked {
		if math.IsInf(c.Score, 0) {
			continue
		}
		lo, hi = math.Min(lo, c.Score), math.Max(hi, c.Score)
	}
	removable := map[string]bool{}
	for _, c := range ranked {
		interior := c.Score > lo && c.Score < hi
		if !chosen[c.PathID] && (interior || math.IsInf(c.Score, 0)) {
			removable[c.PathID] = true
		}
	}
	if len(removable) == 0 {
		return // nothing irrelevant to remove in this pool
	}
	e := pool.engine(t, func(id string) bool { return !removable[id] })
	got, err := e.SelectSet(context.Background(), pool.sid, SetRequest{Request: req, K: len(set.Paths)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pathIDs(got), pathIDs(set)) {
		t.Fatalf("IIA violated: removing %d unchosen candidates changed the set %v -> %v",
			len(removable), pathIDs(set), pathIDs(got))
	}
}

// TestAxiomGreedyMatchesBruteForce pins the greedy assembly to a
// brute-force oracle on exhaustive small pools: SelectSet's objective is
// the lexicographic minimum of the interleaved (marginal cost, rank)
// vector over ALL ordered K-arrangements of the candidate pool, and on
// pools small enough to enumerate (≤ 7 candidates, K ≤ 3, ≤ 210
// arrangements) the oracle finds that minimum independently — its own
// ranking sort, its own normalization, its own overlap sets rebuilt from
// the snapshot aggregates — and must agree with greedy exactly.
func TestAxiomGreedyMatchesBruteForce(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	checked := 0
	for seed := int64(1); checked < axiomSeeds; seed++ {
		pool := newAxiomPool(t, seed)
		if len(pool.paths) > 7 {
			continue // keep the arrangement count exhaustive-small
		}
		checked++
		e := pool.engine(t, nil)
		for _, obj := range axiomObjectives {
			sreq := SetRequest{Request: Request{Objective: obj}}.withDefaults()
			best, err := e.Best(ctx, pool.sid, sreq.Request)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 3; k++ {
				sreq.K = k
				got, err := e.SelectSet(ctx, pool.sid, sreq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Paths[0], best) {
					t.Fatalf("seed %d %v K=%d: top path %+v is not Best %+v", seed, obj, k, got.Paths[0], best)
				}
				want := bruteForceSet(t, e, pool.sid, sreq)
				if !reflect.DeepEqual(pathIDs(got), want) {
					t.Fatalf("seed %d %v K=%d: greedy %v != brute-force optimum %v",
						seed, obj, k, pathIDs(got), want)
				}
			}
		}
	}
}

// bruteForceSet enumerates every ordered arrangement of min(K, n) distinct
// candidates and returns the PathIDs of the lexicographically minimal
// (cost, rank) vector. It reads the candidate pool straight from the
// engine's snapshot (an in-package test may) but re-derives ranking,
// normalization, and overlap fractions on its own.
func bruteForceSet(t *testing.T, e *Engine, sid int, req SetRequest) []string {
	t.Helper()
	snap, err := e.snapshotFor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	aggs := snap.servers[sid].aggs
	type oc struct {
		id             string
		score, norm    float64
		rank           int
		links, transit []uint64
	}
	pool := make([]*oc, 0, len(aggs))
	for _, agg := range aggs {
		cand := agg.candidate(0)
		links, transit := overlapKeys(agg.hops) // independent of the cached copy
		pool = append(pool, &oc{
			id: cand.PathID, score: score(&cand, req.Objective),
			links: links, transit: transit,
		})
	}
	// Rank: best score first, input order on ties (= Select's total order).
	byRank := make([]*oc, len(pool))
	copy(byRank, pool)
	sort.SliceStable(byRank, func(i, j int) bool { return byRank[i].score < byRank[j].score })
	lo, hi := byRank[0].score, byRank[0].score
	for rank, c := range byRank {
		c.rank = rank
		if !math.IsInf(c.score, 0) && c.score > hi {
			hi = c.score
		}
	}
	for _, c := range pool {
		switch {
		case math.IsInf(c.score, 0):
			c.norm = 2
		case hi > lo:
			c.norm = (c.score - lo) / (hi - lo)
		}
	}

	type pair struct {
		cost float64
		rank int
	}
	less := func(a, b []pair) bool {
		for i := range a {
			if a[i].cost != b[i].cost {
				return a[i].cost < b[i].cost
			}
			if a[i].rank != b[i].rank {
				return a[i].rank < b[i].rank
			}
		}
		return false
	}
	marginal := func(c *oc, links, transit map[uint64]struct{}) float64 {
		frac := func(keys []uint64, used map[uint64]struct{}) float64 {
			if len(keys) == 0 {
				return 0
			}
			n := 0
			for _, k := range keys {
				if _, ok := used[k]; ok {
					n++
				}
			}
			return float64(n) / float64(len(keys))
		}
		return c.norm + req.LinkPenalty*frac(c.links, links) + req.ASPenalty*frac(c.transit, transit)
	}

	k := min(req.K, len(pool))
	var bestSeq []*oc
	var bestVec []pair
	used := make([]bool, len(pool))
	seq := make([]*oc, 0, k)
	vec := make([]pair, 0, k)
	links := map[uint64]struct{}{}
	transit := map[uint64]struct{}{}
	var walk func()
	walk = func() {
		if len(seq) == k {
			if bestVec == nil || less(vec, bestVec) {
				bestVec = append([]pair(nil), vec...)
				bestSeq = append([]*oc(nil), seq...)
			}
			return
		}
		for i, c := range pool {
			if used[i] {
				continue
			}
			used[i] = true
			cost := marginal(c, links, transit) // marginal vs the set WITHOUT c
			addedL := addKeys(links, c.links)
			addedT := addKeys(transit, c.transit)
			seq = append(seq, c)
			vec = append(vec, pair{cost, c.rank})
			walk()
			seq = seq[:len(seq)-1]
			vec = vec[:len(vec)-1]
			removeKeys(links, addedL)
			removeKeys(transit, addedT)
			used[i] = false
		}
	}
	walk()
	ids := make([]string, len(bestSeq))
	for i, c := range bestSeq {
		ids[i] = c.id
	}
	return ids
}

// addKeys inserts keys not already present and returns the ones it added
// (so the recursion can undo exactly its own insertions on shared keys).
func addKeys(set map[uint64]struct{}, keys []uint64) []uint64 {
	var added []uint64
	for _, k := range keys {
		if _, ok := set[k]; !ok {
			set[k] = struct{}{}
			added = append(added, k)
		}
	}
	return added
}

func removeKeys(set map[uint64]struct{}, keys []uint64) {
	for _, k := range keys {
		delete(set, k)
	}
}
