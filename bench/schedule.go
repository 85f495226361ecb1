package main

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/upin/scionpath/internal/load"
	"github.com/upin/scionpath/internal/upin/cluster"
)

type opKind uint8

const (
	opPaths opKind = iota
	opPathset
	opIntent
	opCell // client 0 only: one write cell plus its freshness probe
)

func (k opKind) String() string {
	return [...]string{"paths", "pathset", "intent", "cell"}[k]
}

// topK is the ?top= every paths request carries.
const topK = 5

// op is one scheduled client action.
type op struct {
	kind   opKind
	dest   int
	k      int // pathset size
	intent int // variant index into the destination's intent pool
}

// target is the request path of a GET op.
func (o op) target() string {
	if o.kind == opPathset {
		return fmt.Sprintf("/api/pathset?server=%d&k=%d", o.dest, o.k)
	}
	return fmt.Sprintf("/api/paths?server=%d&top=%d", o.dest, topK)
}

// intentVariants is the size of each destination's intent pool.
const intentVariants = 8

// spec is one named workload: which world, which tier, which traffic.
type spec struct {
	name string
	why  string
	// worldB selects world B (measured by a real campaign) over catalogue A.
	worldB bool
	tier   cluster.Config
	dist   load.Dist
	// Request mix: intentShare + pathsetShare <= 1, the rest is paths.
	intentShare  float64
	pathsetShare float64
	pathsetKs    []int
	// cellEvery replaces every Nth operation of client 0 with a write
	// cell (0 = read-only).
	cellEvery int
	// campaign marks the one workload with no serving tier at all.
	campaign bool
	// primary and secondary say which latency class fills which
	// end-to-end slot, and at which tail percentile (opCell: freshness).
	primary, secondary slot
}

// slot is one bounded latency pair: a class's p50 and one of its tails.
type slot struct {
	class opKind
	tail  float64
}

// cellSize is the stats documents per write cell; backfillEvery makes
// every Nth cell land below the snapshot's high-water mark (full rebuild).
const (
	cellSize      = 50
	backfillEvery = 25
)

var specs = []spec{
	{
		name: "paths-miss", tier: tierBare, dist: load.Uniform,
		pathsetShare: 0.10, pathsetKs: []int{2},
		primary: slot{opPaths, 0.99}, secondary: slot{opPathset, 0.99},
		why: "cache off, uniform destinations: every request is a full Select/SelectSet over 1000 candidates plus encode; primary=paths, secondary=pathset",
	},
	{
		name: "paths-hot", tier: tierFull, dist: load.Zipf,
		pathsetShare: 0.10, pathsetKs: []int{2},
		// Collections and preemption disturb ~1 % of these 50 µs requests,
		// which puts p99 of the thin pathset class on the edge between
		// disturbed and undisturbed: it spread 20–38 % over ten seeds, p95 4 %.
		primary: slot{opPaths, 0.99}, secondary: slot{opPathset, 0.95},
		why: "full tier, zipf, read-only so hit ratio ~1: net/http + router + limiter + gate + cache lookup, selection idle; primary=paths, secondary=pathset",
	},
	{
		name: "churn", tier: tierFull, dist: load.Zipf,
		pathsetShare: 0.10, pathsetKs: []int{2}, cellEvery: 100,
		// p90 keeps the issue's name but sits between two populations of
		// the freshness mixture (README "Sizing observations"); p95 is
		// the steadier tail and takes the bounded slot.
		primary: slot{opCell, 0.95}, secondary: slot{opPaths, 0.99},
		why: "full tier with write cells beside the reads: snapshot folds, rebuilds and cache invalidation; primary=freshness insert-to-served (p50,p95), secondary=paths",
	},
	{
		name: "intent-mix", worldB: true, tier: tierFull, dist: load.Zipf,
		intentShare: 0.40, pathsetShare: 0.20, pathsetKs: []int{2, 3, 4},
		primary: slot{opIntent, 0.99}, secondary: slot{opPaths, 0.99},
		why: "measured generated world, 40% POST /api/intent: controller, resolve, tracer, trace write, verifier, recommend; primary=intent, secondary=paths",
	},
	{
		name: "campaign", worldB: true, campaign: true,
		why: "no HTTP: cold then repeat measurement campaign; measure, docdb write/delete, sciond, simnet; primary=repeat start-to-stored delay, secondary=cold",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scheduleLen is the operations generated per client; a window that
// outlasts them wraps around (the window is fixed in seconds, the
// schedule in content).
const scheduleLen = 1 << 15

// buildSchedule derives every client's operation list from the seed.
// Destinations come from load.BuildSchedule — seeded zipf over a seeded
// permutation, the harness's own discipline — and the request kinds from
// a second generator, so adding a kind never shifts the destination draw.
// Popularity ranks are then pinned to catalogue order (pinRanks).
//
//lint:deterministic one seed must yield one schedule — runs are compared per seed
func buildSchedule(s spec, seed int64, nClients int, dests []int) ([][]op, error) {
	ls, err := load.BuildSchedule(load.Config{
		Seed: seed, Mode: load.Closed, Dist: s.dist,
		Clients: nClients, Requests: nClients * scheduleLen, Destinations: dests,
	})
	if err != nil {
		return nil, err
	}
	pin := pinRanks(ls, dests)
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	out := make([][]op, nClients)
	cells := 0
	for c, steps := range ls.PerClient {
		out[c] = make([]op, len(steps))
		for i, st := range steps {
			o := op{kind: opPaths, dest: pin[st.Dest]}
			// Draw both numbers for every op so the stream stays aligned
			// whatever the shares are.
			u, v := rng.Float64(), rng.Intn(1<<16)
			switch {
			case u < s.intentShare:
				o.kind, o.intent = opIntent, v%intentVariants
			case u < s.intentShare+s.pathsetShare:
				o.kind, o.k = opPathset, s.pathsetKs[v%len(s.pathsetKs)]
			}
			if c == 0 && s.cellEvery > 0 && i%s.cellEvery == s.cellEvery-1 {
				o = op{kind: opCell, dest: dests[cells%len(dests)]}
				cells++
			}
			out[c][i] = o
		}
	}
	return out, nil
}

// pinRanks relabels the schedule's destinations so that the r-th most
// requested one is always dests[r]. load.BuildSchedule hides its seeded
// rank permutation, and which destination is hot decides which shard is
// hot and (on world B) how many candidates the hot Select walks: left
// free, that lottery is most of a workload's seed-to-seed spread. The
// seed still decides every draw; the catalogue decides who is popular.
func pinRanks(ls *load.Schedule, dests []int) map[int]int {
	freq := map[int]int{}
	for _, steps := range ls.PerClient {
		for _, st := range steps {
			freq[st.Dest]++
		}
	}
	byFreq := slices.Clone(dests)
	slices.SortStableFunc(byFreq, func(a, b int) int { return freq[b] - freq[a] })
	pin := make(map[int]int, len(dests))
	for r, d := range byFreq {
		pin[d] = dests[r]
	}
	return pin
}
