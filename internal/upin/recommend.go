package upin

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/upin/scionpath/internal/selection"
)

// Weights parameterise the multi-criteria recommendation score. Each weight
// is non-negative; zero drops the criterion. The recommender implements the
// paper's future work: "a user interface and a path recommendation feature,
// that remains our main direction for future research" (§7).
type Weights struct {
	Latency   float64 // lower is better
	Jitter    float64 // lower is better
	Loss      float64 // lower is better
	Bandwidth float64 // higher is better
}

// Profiles for common applications, derived from the paper's discussion:
// streaming/VoIP weigh consistency, bulk transfer weighs bandwidth,
// browsing weighs latency.
var (
	ProfileVoIP      = Weights{Latency: 0.3, Jitter: 0.5, Loss: 0.2}
	ProfileStreaming = Weights{Latency: 0.1, Jitter: 0.4, Loss: 0.2, Bandwidth: 0.3}
	ProfileBulk      = Weights{Loss: 0.2, Bandwidth: 0.8}
	ProfileBrowsing  = Weights{Latency: 0.7, Loss: 0.2, Bandwidth: 0.1}
)

// Recommendation is one ranked suggestion with its normalised score and a
// human-readable reason.
type Recommendation struct {
	Candidate selection.Candidate
	Score     float64 // in [0,1], higher is better
	Reason    string
}

// Recommend ranks the candidate paths for a destination under the weight
// profile. Candidates are fetched through the selection engine with the
// intent's hard constraints applied first; the weights then order the
// survivors by normalised multi-criteria score.
func Recommend(ctx context.Context, engine *selection.Engine, intent Intent, w Weights, topK int) ([]Recommendation, error) {
	if err := validateWeights(w); err != nil {
		return nil, err
	}
	cands, err := engine.Select(ctx, intent.ServerID, intent.Request)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("upin: no candidate satisfies the intent")
	}

	// Normalise each criterion to [0,1] across the candidate set.
	latN := normalizer(cands, func(c selection.Candidate) float64 { return c.AvgLatencyMs })
	jitN := normalizer(cands, func(c selection.Candidate) float64 { return c.JitterMs })
	lossN := normalizer(cands, func(c selection.Candidate) float64 { return c.AvgLossPct })
	bwN := normalizer(cands, func(c selection.Candidate) float64 { return -(c.UpBps + c.DownBps) })

	total := w.Latency + w.Jitter + w.Loss + w.Bandwidth
	if total == 0 {
		return nil, fmt.Errorf("upin: all weights are zero")
	}
	// Score everything, rank an index vector, and build a Recommendation —
	// its Reason is a Sprintf and a Join — only for the topK returned.
	scores := make([]float64, len(cands))
	order := make([]int32, len(cands))
	for i, c := range cands {
		// Each normalised value is "badness" in [0,1]; score = 1 - weighted badness.
		bad := (w.Latency*latN(c.AvgLatencyMs) +
			w.Jitter*jitN(c.JitterMs) +
			w.Loss*lossN(c.AvgLossPct) +
			w.Bandwidth*bwN(-(c.UpBps+c.DownBps))) / total
		scores[i] = 1 - bad
		order[i] = int32(i)
	}
	// Highest score first; ties keep Select order (a stable sort).
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return int(a - b)
	})
	if topK > 0 && len(order) > topK {
		order = order[:topK]
	}
	recs := make([]Recommendation, len(order))
	for i, ci := range order {
		recs[i] = Recommendation{Candidate: cands[ci], Score: scores[ci], Reason: reason(cands[ci], w)}
	}
	return recs, nil
}

func validateWeights(w Weights) error {
	for name, v := range map[string]float64{
		"latency": w.Latency, "jitter": w.Jitter, "loss": w.Loss, "bandwidth": w.Bandwidth,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("upin: invalid %s weight %v", name, v)
		}
	}
	return nil
}

// normalizer returns a function mapping a raw criterion value to badness in
// [0,1] over the candidate population (min-max scaling; infinite values —
// e.g. never-answered paths — map to 1).
func normalizer(cands []selection.Candidate, get func(selection.Candidate) float64) func(float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cands {
		v := get(c)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) || hi == lo {
		return func(float64) float64 { return 0 }
	}
	return func(v float64) float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return 1
		}
		return (v - lo) / (hi - lo)
	}
}

func reason(c selection.Candidate, w Weights) string {
	var parts []string
	if w.Latency > 0 && !math.IsInf(c.AvgLatencyMs, 1) {
		parts = append(parts, fmt.Sprintf("latency %.1fms", c.AvgLatencyMs))
	}
	if w.Jitter > 0 && !math.IsInf(c.JitterMs, 1) {
		parts = append(parts, fmt.Sprintf("jitter %.2fms", c.JitterMs))
	}
	if w.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss %.1f%%", c.AvgLossPct))
	}
	if w.Bandwidth > 0 {
		parts = append(parts, fmt.Sprintf("bw %.1f/%.1fMbps", c.UpBps/1e6, c.DownBps/1e6))
	}
	return fmt.Sprintf("%d hops via ISDs {%s}: %s",
		c.Hops, strings.Join(c.ISDs, ","), strings.Join(parts, ", "))
}
