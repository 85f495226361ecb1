package selection

// Disjointness-aware multipath selection (see docs/SELECTION.md). Users
// increasingly want path *sets*, not one best path: a split transfer over K
// link-disjoint paths aggregates their bottlenecks, while K copies of the
// same bottleneck buy nothing. SelectSet assembles such a set greedily from
// the serving snapshot:
//
//   - candidates are filtered and scored exactly like Select (same request
//     semantics, same snapshot, same lock-free read path and single-flight
//     refresh contract — docs/SERVING.md);
//   - the set is built by sequential argmin over a marginal cost that adds
//     a shared-link and a shared-AS penalty to the normalized base score,
//     so among score-tied candidates the one overlapping least with the
//     already-chosen set wins;
//   - hop-level overlap keys (directed AS-pair links, interior ASes) are
//     computed once per snapshot generation in rebuild and cached on each
//     pathAgg, so the per-request work is hash-set probes, not sequence
//     parsing.
//
// The objective is deliberately lexicographic and user-first: the top path
// is non-negotiable (it is always Best — the axiomatic "optimality" axiom),
// then the best-penalized complement given it, and so on. Under that
// objective the greedy sequence IS the optimum, which is what the
// brute-force oracle in axioms_test.go verifies exhaustively on small
// pools, alongside the remaining axioms (nesting, independence of
// irrelevant alternatives, disjointness preference between score-tied
// paths).

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Default penalty weights: a candidate whose every link is already used by
// the chosen set pays defaultLinkPenalty on top of its normalized score
// (scores normalize into [0,1], so full link overlap outweighs any score
// difference), while full interior-AS overlap pays the milder AS weight —
// shared infrastructure without a shared bottleneck link.
const (
	defaultSetK        = 2
	defaultLinkPenalty = 1.0
	defaultASPenalty   = 0.25
)

// SetRequest asks for a K-path set under the base request's filters and
// objective. Zero-valued knobs fall back to the documented defaults; a
// negative penalty weight disables that penalty (SelectSet degenerates to
// top-K by score when both are disabled).
type SetRequest struct {
	Request

	// K is the number of paths wanted (default 2). Fewer are returned
	// when fewer candidates pass the base request's filters; K=1
	// degenerates to exactly Best.
	K int
	// LinkPenalty weights the fraction of a candidate's directed AS-pair
	// links already used by the chosen set (default 1.0; negative = 0).
	LinkPenalty float64
	// ASPenalty weights the fraction of a candidate's interior ASes
	// (endpoints excluded — every candidate to a destination shares them)
	// already traversed by the chosen set (default 0.25; negative = 0).
	ASPenalty float64
}

// withDefaults resolves the documented defaults and clamps.
func (r SetRequest) withDefaults() SetRequest {
	if r.K < 1 {
		r.K = defaultSetK
	}
	switch {
	case r.LinkPenalty == 0:
		r.LinkPenalty = defaultLinkPenalty
	case r.LinkPenalty < 0:
		r.LinkPenalty = 0
	}
	switch {
	case r.ASPenalty == 0:
		r.ASPenalty = defaultASPenalty
	case r.ASPenalty < 0:
		r.ASPenalty = 0
	}
	return r
}

// PathSet is a selected multipath set, best path first.
type PathSet struct {
	// Paths holds the chosen candidates in selection order: Paths[0] is
	// always the single best path of the base request.
	Paths []Candidate
	// Disjointness is the fraction of link traversals across the set used
	// by exactly one chosen path: 1 = fully link-disjoint (and always 1
	// for a single-path set), 0 = every link shared.
	Disjointness float64
	// SharedLinks counts link traversals whose directed link is used by
	// two or more chosen paths; SharedASes counts the analogous interior-
	// AS traversals.
	SharedLinks int
	SharedASes  int
}

// SelectSet assembles a K-path set to the destination. Ranking and
// filtering follow Select exactly; assembly is greedy under the marginal
// cost
//
//	normScore(c) + LinkPenalty·sharedLinkFrac(c,S) + ASPenalty·sharedASFrac(c,S)
//
// with ties broken toward the better base rank. Like Best, it returns an
// error when no candidate satisfies the request.
func (e *Engine) SelectSet(ctx context.Context, serverID int, req SetRequest) (PathSet, error) {
	aggs, err := e.aggregatesFor(ctx, serverID)
	if err != nil {
		return PathSet{}, err
	}
	req = req.withDefaults()
	creq := compileRequest(&req.Request)
	// The greedy needs only each survivor's score and cached overlap keys;
	// Candidates are built for the chosen K alone.
	pool := make([]*pathAgg, 0, len(aggs))
	scores := make([]float64, 0, len(aggs))
	for _, agg := range aggs {
		if sc, ok := creq.score(agg); ok {
			pool = append(pool, agg)
			scores = append(scores, sc)
		}
	}
	if len(pool) == 0 {
		return PathSet{}, fmt.Errorf("selection: no path to server %d satisfies the request", serverID)
	}
	return assembleSet(pool, scores, greedySet(pool, scores, req)), nil
}

// greedySet picks min(K, len) candidates by sequential argmin over the
// marginal cost, returning their indexes into pool in selection order.
// Cost ties go to the better base rank — Select's total order: score, then
// catalogue order (pool keeps it) — so the argmin at each step is unique,
// the result is deterministic for a given snapshot and request, and the
// first pick (no overlap yet, cost = normalized score) is exactly Best. No
// sort is needed: rank only ever breaks ties between two candidates.
func greedySet(pool []*pathAgg, scores []float64, req SetRequest) []int32 {
	k := min(req.K, len(pool))
	norm := normScores(scores)
	usedLinks := make(map[uint64]struct{})
	usedAS := make(map[uint64]struct{})
	taken := make([]bool, len(pool))
	chosen := make([]int32, 0, k)
	for len(chosen) < k {
		best, bestCost := -1, 0.0
		for ci, agg := range pool {
			if taken[ci] {
				continue
			}
			cost := norm[ci] +
				req.LinkPenalty*overlapFrac(agg.links, usedLinks) +
				req.ASPenalty*overlapFrac(agg.transit, usedAS)
			// ci ascends, so on a cost tie only a strictly better score
			// outranks the incumbent.
			if best < 0 || cost < bestCost || (cost == bestCost && scores[ci] < scores[best]) {
				bestCost, best = cost, ci
			}
		}
		taken[best] = true
		chosen = append(chosen, int32(best))
		markUsed(usedLinks, pool[best].links)
		markUsed(usedAS, pool[best].transit)
	}
	return chosen
}

// normScores maps scores into [0,1] by min-max over the pool. Infinite
// scores — paths that never answered under a latency objective — land at 2,
// beyond any finite candidate but still selectable when nothing else is
// left. A degenerate pool (all scores equal) normalizes to all zeros,
// leaving the penalties alone to differentiate.
func normScores(scores []float64) []float64 {
	lo := slices.Min(scores)
	hi := lo
	for _, s := range scores {
		if !math.IsInf(s, 0) && s > hi {
			hi = s
		}
	}
	out := make([]float64, len(scores))
	span := hi - lo
	for i, s := range scores {
		switch {
		case math.IsInf(s, 0):
			out[i] = 2
		case span > 0:
			out[i] = (s - lo) / span
		}
	}
	return out
}

// overlapFrac is the fraction of keys already present in used.
func overlapFrac(keys []uint64, used map[uint64]struct{}) float64 {
	if len(keys) == 0 || len(used) == 0 {
		return 0
	}
	shared := 0
	for _, k := range keys {
		if _, ok := used[k]; ok {
			shared++
		}
	}
	return float64(shared) / float64(len(keys))
}

func markUsed(used map[uint64]struct{}, keys []uint64) {
	for _, k := range keys {
		used[k] = struct{}{}
	}
}

// assembleSet materialises the PathSet and its disjointness accounting:
// a traversal (one path using one link / interior AS) counts as shared
// when at least one other chosen path uses the same key.
func assembleSet(pool []*pathAgg, scores []float64, chosen []int32) PathSet {
	set := PathSet{Paths: make([]Candidate, 0, len(chosen))}
	linkUses := make(map[uint64]int)
	asUses := make(map[uint64]int)
	totalLinks := 0
	for _, ci := range chosen {
		set.Paths = append(set.Paths, pool[ci].candidate(scores[ci]))
		for _, k := range pool[ci].links {
			linkUses[k]++
			totalLinks++
		}
		for _, k := range pool[ci].transit {
			asUses[k]++
		}
	}
	for _, ci := range chosen {
		for _, k := range pool[ci].links {
			if linkUses[k] > 1 {
				set.SharedLinks++
			}
		}
		for _, k := range pool[ci].transit {
			if asUses[k] > 1 {
				set.SharedASes++
			}
		}
	}
	set.Disjointness = 1
	if totalLinks > 0 {
		set.Disjointness = 1 - float64(set.SharedLinks)/float64(totalLinks)
	}
	return set
}

// overlapKeys derives a path's overlap identity from its cached hop
// metadata: one key per distinct directed AS-pair link, one per distinct
// interior AS (endpoints excluded — the source and destination ASes are
// common to every candidate for a destination and carry no disjointness
// signal). The keys form a SET — a path that traverses an AS twice still
// overlaps with itself zero times. Keys are FNV-64a over the canonical IA
// renderings, the same hash the cluster tier's rendezvous placement
// trusts.
func overlapKeys(hops []hopMeta) (links, transit []uint64) {
	seen := make(map[uint64]struct{}, len(hops)*2)
	dedup := func(out []uint64, k uint64) []uint64 {
		if _, ok := seen[k]; ok {
			return out
		}
		seen[k] = struct{}{}
		return append(out, k)
	}
	if len(hops) > 1 {
		links = make([]uint64, 0, len(hops)-1)
		for i := 0; i+1 < len(hops); i++ {
			h := fnv.New64a()
			_, _ = h.Write([]byte(hops[i].ia)) // fnv.Write never fails
			_, _ = h.Write([]byte{'>'})
			_, _ = h.Write([]byte(hops[i+1].ia))
			links = dedup(links, h.Sum64())
		}
	}
	if len(hops) > 2 {
		clear(seen) // link and AS keys live in separate spaces
		transit = make([]uint64, 0, len(hops)-2)
		for _, hm := range hops[1 : len(hops)-1] {
			h := fnv.New64a()
			_, _ = h.Write([]byte(hm.ia)) // fnv.Write never fails
			transit = dedup(transit, h.Sum64())
		}
	}
	return links, transit
}
