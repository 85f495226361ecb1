package selection

// The uncached oracle: the pre-snapshot engine, kept out of production code
// as the independent reference the serving path is verified against
// (snapshot_test.go, topk_test.go, axioms_test.go) and the baseline the
// serving benchmarks measure the snapshot's speedup from. It re-aggregates
// each path's full stats history on every call, resolves exclusions against
// the live topology, filters and scores the materialised Candidate, and
// ranks with a stable sort — none of it shares code with the metrics-based
// filter, score or bounded ranking SelectTop uses.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
)

func (e *Engine) selectUncached(ctx context.Context, serverID int, req Request) ([]Candidate, error) {
	creq := compileRequest(&req)
	pathDocs, err := measure.PathsForServer(e.db, serverID)
	if err != nil {
		return nil, err
	}
	if len(pathDocs) == 0 {
		return nil, fmt.Errorf("selection: no collected paths for server %d", serverID)
	}

	out := make([]Candidate, 0, len(pathDocs))
	for _, pd := range pathDocs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("selection: select cancelled: %w", err)
		}
		cand, ok := e.aggregate(pd)
		if !ok || cand.Samples < creq.minSamples {
			continue
		}
		if !e.passesExclusions(&cand, &creq) {
			continue
		}
		if !passesPerformance(&cand, &req) {
			continue
		}
		cand.Score = score(&cand, req.Objective)
		out = append(out, cand)
	}
	// Best (lowest score) first, input order on ties.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out, nil
}

// aggregate folds the paths_stats documents of one path into a candidate.
func (e *Engine) aggregate(pd measure.PathDoc) (Candidate, bool) {
	cand := Candidate{
		PathID:   pd.ID,
		ServerID: pd.ServerID,
		Hops:     pd.Hops,
		ISDs:     pd.ISDs,
		Sequence: pd.Sequence,
	}
	var latSum, mdevSum, lossSum, upSum, downSum float64
	var latN, mdevN, lossN, upN, downN int
	cand.Samples = e.db.Collection(measure.ColStats).ForEach(docdb.Query{
		Filter: docdb.Eq(measure.FPathID, pd.ID),
	}, func(d docdb.Document) bool {
		if v, ok := num(d[measure.FAvgLatency]); ok {
			latSum += v
			latN++
		}
		if v, ok := num(d[measure.FMdev]); ok {
			mdevSum += v
			mdevN++
		}
		if v, ok := num(d[measure.FLoss]); ok {
			lossSum += v
			lossN++
		}
		if v, ok := num(d[measure.FBwUpMTU]); ok {
			upSum += v
			upN++
		}
		if v, ok := num(d[measure.FBwDownMTU]); ok {
			downSum += v
			downN++
		}
		return true
	})
	if cand.Samples == 0 {
		return cand, false
	}
	if latN > 0 {
		cand.AvgLatencyMs = latSum / float64(latN)
	} else {
		cand.AvgLatencyMs = math.Inf(1) // never answered: infinitely slow
	}
	if mdevN > 0 {
		cand.JitterMs = mdevSum / float64(mdevN)
	} else {
		cand.JitterMs = math.Inf(1)
	}
	if lossN > 0 {
		cand.AvgLossPct = lossSum / float64(lossN)
	}
	if upN > 0 {
		cand.UpBps = upSum / float64(upN)
	}
	if downN > 0 {
		cand.DownBps = downSum / float64(downN)
	}
	e.annotateGeo(&cand)
	return cand, true
}

// passesExclusions is passesHops for the oracle: same filters, resolved
// against the live topology instead of cached hop metadata.
func (e *Engine) passesExclusions(c *Candidate, cr *compiledRequest) bool {
	for _, traversed := range c.ISDs {
		if cr.badISD[traversed] {
			return false
		}
	}
	if len(cr.badAS) == 0 && len(cr.badCountry) == 0 && len(cr.badOp) == 0 {
		return true
	}
	for _, pred := range c.Sequence {
		ia := addr.IA{ISD: pred.ISD, AS: pred.AS}
		if cr.badAS[ia.String()] {
			return false
		}
		as := e.topo.AS(ia)
		if as == nil {
			continue
		}
		if cr.badCountry[strings.ToLower(as.Site.Country)] || cr.badOp[strings.ToLower(as.Operator)] {
			return false
		}
	}
	return true
}

// passesPerformance applies the hard performance bounds to a candidate.
func passesPerformance(c *Candidate, req *Request) bool {
	if req.MaxLatencyMs > 0 && !(c.AvgLatencyMs <= req.MaxLatencyMs) {
		return false
	}
	if req.MaxLossPct > 0 && c.AvgLossPct > req.MaxLossPct {
		return false
	}
	if req.MaxJitterMs > 0 && !(c.JitterMs <= req.MaxJitterMs) {
		return false
	}
	if req.MinBandwidthBps > 0 {
		if math.Min(c.UpBps, c.DownBps) < req.MinBandwidthBps {
			return false
		}
	}
	if req.MinUpBps > 0 && c.UpBps < req.MinUpBps {
		return false
	}
	if req.MinDownBps > 0 && c.DownBps < req.MinDownBps {
		return false
	}
	return true
}

// score maps a candidate to its ranking value (lower is better).
func score(c *Candidate, o Objective) float64 {
	switch o {
	case HighestBandwidth:
		return -(c.UpBps + c.DownBps) / 2
	case LowestLoss:
		return c.AvgLossPct*1e6 + c.AvgLatencyMs
	case MostStable:
		return c.JitterMs*1e3 + c.AvgLatencyMs
	default: // LowestLatency
		return c.AvgLatencyMs
	}
}
