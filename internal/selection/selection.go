// Package selection implements the paper's user-facing path selection: the
// database of measured paths is "queried to provide users with the best
// possible path they can choose for reaching a specific destination, based
// on performance, geographic placement of devices traversed, and operators
// that run them" (§1). It corresponds to the UPIN Path Controller role
// (§2.1) applied to a SCION network.
package selection

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/topology"
)

// Objective is what the user optimises for.
type Objective int

const (
	// LowestLatency picks the path with the smallest mean RTT.
	LowestLatency Objective = iota
	// HighestBandwidth picks the path with the largest mean of the
	// up/down MTU bandwidths.
	HighestBandwidth
	// LowestLoss picks the path with the smallest mean loss.
	LowestLoss
	// MostStable picks the path with the smallest latency jitter (mdev),
	// the paper's streaming/VoIP criterion: "latency consistency is more
	// important than low latency values" (§6.1).
	MostStable
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case LowestLatency:
		return "lowest-latency"
	case HighestBandwidth:
		return "highest-bandwidth"
	case LowestLoss:
		return "lowest-loss"
	case MostStable:
		return "most-stable"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective parses the CLI spelling of an objective.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "latency", "lowest-latency":
		return LowestLatency, nil
	case "bandwidth", "highest-bandwidth":
		return HighestBandwidth, nil
	case "loss", "lowest-loss":
		return LowestLoss, nil
	case "stable", "jitter", "most-stable":
		return MostStable, nil
	default:
		return 0, fmt.Errorf("selection: unknown objective %q", s)
	}
}

// Request is a user's path request: hard performance bounds, exclusions for
// geographic or sovereignty reasons, and an optimisation objective.
type Request struct {
	Objective Objective

	// Hard performance constraints; zero values mean unconstrained.
	MaxLatencyMs    float64
	MaxLossPct      float64
	MinBandwidthBps float64
	// MinUpBps/MinDownBps constrain one direction only (an uploader cares
	// about client->server, a media consumer about server->client).
	MinUpBps    float64
	MinDownBps  float64
	MaxJitterMs float64
	// MinSamples requires at least this many measurements per path before
	// trusting it (default 1).
	MinSamples int

	// Exclusions: a path is rejected if ANY traversed AS matches.
	ExcludeISDs      []string
	ExcludeASes      []string
	ExcludeCountries []string
	ExcludeOperators []string
}

// Candidate is one measured path with aggregated statistics and its rank.
type Candidate struct {
	PathID   string
	ServerID int
	Hops     int
	ISDs     []string
	Sequence pathmgr.Sequence

	Samples      int
	AvgLatencyMs float64
	JitterMs     float64
	AvgLossPct   float64
	// UpBps/DownBps are the mean achieved MTU-packet bandwidths.
	UpBps, DownBps float64

	// Score is the objective value used for ranking (lower is better).
	Score float64
	// Countries/Operators traversed (for explanation output).
	Countries []string
	Operators []string
}

// Engine answers path requests from the measurement database. It serves
// from an atomically-published snapshot of per-path aggregates (see
// snapshot.go and docs/SERVING.md), refreshed lazily when the backing
// collections' generations move.
type Engine struct {
	db    *docdb.DB
	topo  *topology.Topology
	paths *docdb.Collection
	stats *docdb.Collection
	// owns restricts the snapshot to the destinations this engine serves
	// (nil = all). A sharded serving tier gives every replica its own
	// owner-filtered engine, so each shard's snapshot carries — and each
	// rebuild annotates — only its share of the path catalogue.
	owns func(serverID int) bool

	// current is the published serving snapshot; nil until first refresh.
	current atomic.Pointer[snapshot]
	// rebuilds/folds/coalesced count full refreshes, incremental
	// refreshes, and requests that waited for another caller's refresh
	// instead of running their own (tests, /api/stats).
	rebuilds  atomic.Int64
	folds     atomic.Int64
	coalesced atomic.Int64

	// mu guards the single-flight refresh slot below.
	mu       sync.Mutex
	inflight *refreshFlight
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithServerOwner restricts the engine's serving snapshot to destinations
// for which owns returns true. Select for a non-owned destination reports
// "no collected paths" — the caller (a shard router) must not send it
// there.
func WithServerOwner(owns func(serverID int) bool) Option {
	return func(e *Engine) { e.owns = owns }
}

// New returns an engine over the given database and topology. The stats
// collection gets a hash index on path_id (per-path aggregation in the
// tests' uncached oracle) and an ordered index on timestamp_ms (the
// campaign's newest-stats and prune queries; refresh itself reads by storage
// position and needs neither); the paths collection gets a hash index on
// server_id and an ordered index on path_index.
func New(db *docdb.DB, topo *topology.Topology, opts ...Option) *Engine {
	stats := db.Collection(measure.ColStats)
	stats.EnsureIndex(measure.FPathID)
	stats.EnsureSortedIndex(measure.FTimestamp)
	paths := db.Collection(measure.ColPaths)
	paths.EnsureIndex(measure.FServerID)
	paths.EnsureSortedIndex(measure.FPathIndex)
	e := &Engine{db: db, topo: topo, paths: paths, stats: stats}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Counters reports refresh activity since the engine was built: full
// rebuilds, incremental folds, and requests that waited for a refresh
// another request was running.
func (e *Engine) Counters() (rebuilds, folds, coalesced int64) {
	return e.rebuilds.Load(), e.folds.Load(), e.coalesced.Load()
}

// Select returns the candidate paths to a destination server satisfying the
// request, best first. Paths without measurements are skipped. The answer
// comes from the serving snapshot: when it is current this is a lock-free
// read plus per-request filtering; when stale, one caller refreshes while
// the others wait for it, and every write that returned before the call
// began is reflected (read-your-writes, snapshot.go).
func (e *Engine) Select(ctx context.Context, serverID int, req Request) ([]Candidate, error) {
	return e.SelectTop(ctx, serverID, req, 0)
}

// SelectTop is Select bounded to the k best candidates (k <= 0: all). The
// ranking is a total order — score, then catalogue order — so the result is
// exactly the first k elements of the unbounded Select. Filtering and
// scoring run over each aggregate's stack-allocated metrics; a Candidate is
// built only for the paths returned (docs/SERVING.md).
func (e *Engine) SelectTop(ctx context.Context, serverID int, req Request, k int) ([]Candidate, error) {
	aggs, err := e.aggregatesFor(ctx, serverID)
	if err != nil {
		return nil, err
	}
	creq := compileRequest(&req)
	if k <= 0 || k > len(aggs) {
		k = len(aggs)
	}
	// best holds the k best seen so far; once full it is a max-heap under
	// ranked.compare (worst kept entry at the root), so a destination with
	// 10³ candidates costs 10³ compares and k Candidates, not 10³ Candidates.
	best := make([]ranked, 0, k)
	for i, agg := range aggs {
		sc, ok := creq.score(agg)
		if !ok {
			continue
		}
		r := ranked{score: sc, idx: int32(i)}
		switch {
		case len(best) < k:
			best = append(best, r)
			if len(best) == k && k < len(aggs) {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(best, j)
				}
			}
		case r.compare(best[0]) < 0:
			best[0] = r
			siftDown(best, 0)
		}
	}
	slices.SortFunc(best, ranked.compare)
	out := make([]Candidate, len(best))
	for i, r := range best {
		out[i] = aggs[r.idx].candidate(r.score)
	}
	return out, nil
}

// Best returns the single best candidate, or an error when no path
// satisfies the request.
func (e *Engine) Best(ctx context.Context, serverID int, req Request) (Candidate, error) {
	cands, err := e.SelectTop(ctx, serverID, req, 1)
	if err != nil {
		return Candidate{}, err
	}
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("selection: no path to server %d satisfies the request", serverID)
	}
	return cands[0], nil
}

// aggregatesFor returns the destination's aggregates, in catalogue order,
// from a serving snapshot no older than the request (snapshot.go).
func (e *Engine) aggregatesFor(ctx context.Context, serverID int) ([]*pathAgg, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("selection: select cancelled: %w", err)
	}
	snap, err := e.snapshotFor(ctx)
	if err != nil {
		return nil, err
	}
	aggs := snap.servers[serverID].aggs
	if len(aggs) == 0 {
		return nil, fmt.Errorf("selection: no collected paths for server %d", serverID)
	}
	return aggs, nil
}

// ranked is one filtered aggregate in a ranking: its score and its index in
// the destination's catalogue order.
type ranked struct {
	score float64
	idx   int32
}

// compare is the ranking's total order: lowest score first, catalogue order
// on ties (what a stable sort by score over the catalogue produces).
func (a ranked) compare(b ranked) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return int(a.idx - b.idx)
}

// siftDown restores the max-heap property (worst-ranked at the root) below
// position i.
func siftDown(h []ranked, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].compare(h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// annotateGeo fills the traversed countries/operators from the topology.
func (e *Engine) annotateGeo(c *Candidate) {
	seenC, seenO := map[string]bool{}, map[string]bool{}
	for _, pred := range c.Sequence {
		ia := addr.IA{ISD: pred.ISD, AS: pred.AS}
		as := e.topo.AS(ia)
		if as == nil {
			continue
		}
		if !seenC[as.Site.Country] {
			seenC[as.Site.Country] = true
			c.Countries = append(c.Countries, as.Site.Country)
		}
		if !seenO[as.Operator] {
			seenO[as.Operator] = true
			c.Operators = append(c.Operators, as.Operator)
		}
	}
}

// compiledRequest holds the request's exclusion lists compiled into hash
// sets once per Select, instead of once per candidate.
type compiledRequest struct {
	// req is held by pointer: it carries four slice headers, and copying it
	// per candidate showed up in the 5000-candidate Select profile.
	req        *Request
	minSamples int
	badISD     map[string]bool
	badAS      map[string]bool
	badCountry map[string]bool
	badOp      map[string]bool
}

func compileRequest(req *Request) compiledRequest {
	cr := compiledRequest{req: req, minSamples: req.MinSamples}
	if cr.minSamples == 0 {
		cr.minSamples = 1
	}
	if len(req.ExcludeISDs) > 0 {
		cr.badISD = make(map[string]bool, len(req.ExcludeISDs))
		for _, isd := range req.ExcludeISDs {
			cr.badISD[isd] = true
		}
	}
	if len(req.ExcludeASes) > 0 {
		cr.badAS = make(map[string]bool, len(req.ExcludeASes))
		for _, a := range req.ExcludeASes {
			cr.badAS[a] = true
		}
	}
	if len(req.ExcludeCountries) > 0 {
		cr.badCountry = make(map[string]bool, len(req.ExcludeCountries))
		for _, cn := range req.ExcludeCountries {
			cr.badCountry[strings.ToLower(cn)] = true
		}
	}
	if len(req.ExcludeOperators) > 0 {
		cr.badOp = make(map[string]bool, len(req.ExcludeOperators))
		for _, op := range req.ExcludeOperators {
			cr.badOp[strings.ToLower(op)] = true
		}
	}
	return cr
}

// passesHops applies the sovereignty/geography filters to a cached
// aggregate using its precomputed hop metadata: no topology lookups, no
// case-folding at request time.
func (cr *compiledRequest) passesHops(a *pathAgg) bool {
	if len(cr.badISD) > 0 { // a probe of even a nil map is a call per ISD
		for _, traversed := range a.id.ISDs {
			if cr.badISD[traversed] {
				return false
			}
		}
	}
	if len(cr.badAS) == 0 && len(cr.badCountry) == 0 && len(cr.badOp) == 0 {
		return true
	}
	for i := range a.hops {
		h := &a.hops[i]
		if cr.badAS[h.ia] {
			return false
		}
		if h.known && (cr.badCountry[h.country] || cr.badOp[h.operator]) {
			return false
		}
	}
	return true
}

// score filters one aggregate and returns its ranking value (lower is
// better); ok is false when the request rejects the path.
func (cr *compiledRequest) score(a *pathAgg) (score float64, ok bool) {
	if a.samples < cr.minSamples || !cr.passesHops(a) {
		return 0, false
	}
	m := a.metrics()
	if !m.passesPerformance(cr.req) {
		return 0, false
	}
	return m.score(cr.req.Objective), true
}

// passesPerformance applies the hard performance bounds.
func (m *metrics) passesPerformance(req *Request) bool {
	if req.MaxLatencyMs > 0 && !(m.latencyMs <= req.MaxLatencyMs) {
		return false
	}
	if req.MaxLossPct > 0 && m.lossPct > req.MaxLossPct {
		return false
	}
	if req.MaxJitterMs > 0 && !(m.jitterMs <= req.MaxJitterMs) {
		return false
	}
	if req.MinBandwidthBps > 0 && math.Min(m.upBps, m.downBps) < req.MinBandwidthBps {
		return false
	}
	if req.MinUpBps > 0 && m.upBps < req.MinUpBps {
		return false
	}
	if req.MinDownBps > 0 && m.downBps < req.MinDownBps {
		return false
	}
	return true
}

// score maps the means to the objective's ranking value (lower is better).
func (m *metrics) score(o Objective) float64 {
	switch o {
	case HighestBandwidth:
		return -(m.upBps + m.downBps) / 2
	case LowestLoss:
		// Loss first, latency as tie-breaker.
		return m.lossPct*1e6 + m.latencyMs
	case MostStable:
		return m.jitterMs*1e3 + m.latencyMs
	default: // LowestLatency
		return m.latencyMs
	}
}

// Explain renders a human-readable justification for a candidate.
func Explain(c Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "path %s: %d hops, ISDs {%s}", c.PathID, c.Hops, strings.Join(c.ISDs, ","))
	if !math.IsInf(c.AvgLatencyMs, 1) {
		fmt.Fprintf(&b, ", avg latency %.1f ms (jitter %.2f ms)", c.AvgLatencyMs, c.JitterMs)
	}
	fmt.Fprintf(&b, ", loss %.1f%%", c.AvgLossPct)
	if c.UpBps > 0 || c.DownBps > 0 {
		fmt.Fprintf(&b, ", bw up/down %.1f/%.1f Mbps", c.UpBps/1e6, c.DownBps/1e6)
	}
	fmt.Fprintf(&b, ", via %s (%s), %d samples",
		strings.Join(c.Countries, ">"), strings.Join(c.Operators, ","), c.Samples)
	return b.String()
}

func num(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	default:
		return 0, false
	}
}
