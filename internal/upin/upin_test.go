package upin

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

type fixture struct {
	topo     *topology.Topology
	net      *simnet.Network
	daemon   *sciond.Daemon
	db       *docdb.DB
	engine   *selection.Engine
	explorer *DomainExplorer
	serverID int
}

func setup(t testing.TB, seed int64) *fixture {
	t.Helper()
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		t.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		t.Fatal(err)
	}
	suite := &measure.Suite{DB: db, Daemon: daemon}
	servers, _ := measure.Servers(db)
	serverID := 0
	for _, s := range servers {
		if s.Address.IA == topology.AWSIreland {
			serverID = s.ID
		}
	}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 3, ServerIDs: []int{serverID},
		PingCount: 8, PingInterval: 5 * time.Millisecond,
		BwDuration: 300 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// The UPIN domain covers the European ISDs 16,17,19 but not Asia/US.
	explorer := NewDomainExplorer(topo, []addr.ISD{16, 17, 19})
	return &fixture{
		topo: topo, net: net, daemon: daemon, db: db,
		engine: selection.New(db, topo), explorer: explorer, serverID: serverID,
	}
}

func TestDomainExplorer(t *testing.T) {
	f := setup(t, 1)
	n, err := f.explorer.Node(topology.AWSIreland)
	if err != nil {
		t.Fatal(err)
	}
	if n.Country != "Ireland" || n.Operator != "Amazon" || !n.InDomain {
		t.Errorf("node info: %+v", n)
	}
	korea, err := f.explorer.Node(topology.KoreaUniv)
	if err != nil {
		t.Fatal(err)
	}
	if korea.InDomain {
		t.Error("Korea reported inside the EU domain")
	}
	if _, err := f.explorer.Node(addr.MustParseIA("99-ff00:0:1")); err == nil {
		t.Error("unknown node resolved")
	}
	if got := len(f.explorer.Nodes()); got != len(f.topo.ASes()) {
		t.Errorf("Nodes() returned %d of %d", got, len(f.topo.ASes()))
	}
}

func TestControllerDecide(t *testing.T) {
	f := setup(t, 2)
	ctrl := NewController(f.daemon, f.engine, f.explorer)
	intent := Intent{ServerID: f.serverID, Request: selection.Request{
		Objective: selection.LowestLatency,
	}}
	dec, err := ctrl.Decide(context.Background(), topology.AWSIreland, intent)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Path == nil || dec.Path.Dst != topology.AWSIreland {
		t.Fatalf("decision path: %v", dec.Path)
	}
	if dec.Candidate.PathID == "" {
		t.Error("decision lacks the measured candidate")
	}
	// The installed path must match the candidate's pinned sequence.
	if !dec.Candidate.Sequence.MatchPath(dec.Path) {
		t.Error("installed path deviates from the decided sequence")
	}
}

func TestControllerImpossibleIntent(t *testing.T) {
	f := setup(t, 3)
	ctrl := NewController(f.daemon, f.engine, f.explorer)
	_, err := ctrl.Decide(context.Background(), topology.AWSIreland, Intent{
		ServerID: f.serverID,
		Request:  selection.Request{MaxLatencyMs: 0.001},
	})
	if err == nil {
		t.Error("impossible intent produced a decision")
	}
}

func TestTracerAndVerifierSatisfied(t *testing.T) {
	f := setup(t, 4)
	ctrl := NewController(f.daemon, f.engine, f.explorer)
	intent := Intent{ServerID: f.serverID, Request: selection.Request{
		Objective:        selection.LowestLatency,
		ExcludeCountries: []string{"United States", "Singapore"},
	}}
	dec, err := ctrl.Decide(context.Background(), topology.AWSIreland, intent)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := NewTracer(f.net).Trace(dec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Hops) != dec.Path.NumHops() {
		t.Fatalf("trace has %d hops, path %d", len(trace.Hops), dec.Path.NumHops())
	}
	verdict := NewVerifier(f.explorer).Verify(intent, trace)
	if !verdict.Satisfied {
		t.Errorf("intent not satisfied: %v", verdict.Violations)
	}
	if len(verdict.Unverifiable) != 0 {
		t.Errorf("EU-only path has unverifiable hops: %v", verdict.Unverifiable)
	}
}

func TestVerifierDetectsViolation(t *testing.T) {
	f := setup(t, 5)
	ctrl := NewController(f.daemon, f.engine, f.explorer)
	// Decide WITHOUT the exclusion, then verify against an intent WITH it:
	// pick a path known to cross the US (highest latency tends to detour).
	all, err := f.engine.Select(context.Background(), f.serverID, selection.Request{})
	if err != nil {
		t.Fatal(err)
	}
	var usCand *selection.Candidate
	for i := range all {
		for _, c := range all[i].Countries {
			if c == "United States" {
				usCand = &all[i]
			}
		}
	}
	if usCand == nil {
		t.Skip("no US-crossing candidate in this run")
	}
	path, err := f.daemon.ResolveSequence(topology.AWSIreland, usCand.Sequence)
	if err != nil {
		t.Fatal(err)
	}
	dec := &Decision{Path: path, Candidate: *usCand}
	trace, err := NewTracer(f.net).Trace(dec, 2)
	if err != nil {
		t.Fatal(err)
	}
	intent := Intent{ServerID: f.serverID, Request: selection.Request{
		ExcludeCountries: []string{"United States"},
	}}
	verdict := NewVerifier(f.explorer).Verify(intent, trace)
	if verdict.Satisfied {
		t.Error("verifier passed a path through an excluded country")
	}
	found := false
	for _, v := range verdict.Violations {
		if strings.Contains(v, "United States") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not name the country", verdict.Violations)
	}
	_ = ctrl
}

func TestVerifierMarksOutOfDomainHops(t *testing.T) {
	f := setup(t, 6)
	// Shrink the domain to ISD 17 only: the AWS hops become unverifiable.
	narrow := NewDomainExplorer(f.topo, []addr.ISD{17})
	all, _ := f.engine.Select(context.Background(), f.serverID, selection.Request{})
	path, err := f.daemon.ResolveSequence(topology.AWSIreland, all[0].Sequence)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := NewTracer(f.net).Trace(&Decision{Path: path, Candidate: all[0]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	verdict := NewVerifier(narrow).Verify(Intent{ServerID: f.serverID}, trace)
	if len(verdict.Unverifiable) == 0 {
		t.Error("no unverifiable hops despite ISD-16 hops outside the domain")
	}
	for _, ia := range verdict.Unverifiable {
		if ia.ISD == 17 {
			t.Errorf("in-domain hop %s marked unverifiable", ia)
		}
	}
}

func TestRecommendProfiles(t *testing.T) {
	f := setup(t, 7)
	intent := Intent{ServerID: f.serverID, Request: selection.Request{}}

	voip, err := Recommend(context.Background(), f.engine, intent, ProfileVoIP, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(voip) == 0 {
		t.Fatal("no recommendations")
	}
	// Scores are in [0,1] and sorted descending.
	for i, r := range voip {
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("score %v out of range", r.Score)
		}
		if i > 0 && r.Score > voip[i-1].Score {
			t.Error("recommendations not sorted")
		}
		if r.Reason == "" {
			t.Error("empty reason")
		}
	}
	// The VoIP winner avoids the jittery long-distance transits.
	for _, pred := range voip[0].Candidate.Sequence {
		as := pred.AS.String()
		if as == "ffaa:0:1004" || as == "ffaa:0:1007" {
			t.Errorf("VoIP recommendation crosses jittery AS %s", as)
		}
	}

	// Bulk profile ranks by bandwidth: its winner's mean bandwidth is the
	// maximum among candidates.
	bulk, err := Recommend(context.Background(), f.engine, intent, ProfileBulk, 0)
	if err != nil {
		t.Fatal(err)
	}
	best := bulk[0].Candidate
	for _, r := range bulk[1:] {
		if r.Candidate.UpBps+r.Candidate.DownBps > best.UpBps+best.DownBps+1 {
			t.Errorf("bulk winner %.1f Mbps is not the bandwidth max (%.1f)",
				(best.UpBps+best.DownBps)/2e6, (r.Candidate.UpBps+r.Candidate.DownBps)/2e6)
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	f := setup(t, 8)
	intent := Intent{ServerID: f.serverID}
	if _, err := Recommend(context.Background(), f.engine, intent, Weights{Latency: -1}, 3); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Recommend(context.Background(), f.engine, intent, Weights{}, 3); err == nil {
		t.Error("all-zero weights accepted")
	}
	impossible := Intent{ServerID: f.serverID, Request: selection.Request{MaxLatencyMs: 0.001}}
	if _, err := Recommend(context.Background(), f.engine, impossible, ProfileBrowsing, 3); err == nil {
		t.Error("impossible intent recommended")
	}
}

func TestRecommendTopK(t *testing.T) {
	f := setup(t, 9)
	intent := Intent{ServerID: f.serverID}
	recs, err := Recommend(context.Background(), f.engine, intent, ProfileBrowsing, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("topK ignored: %d", len(recs))
	}
}

// TestRecommendMatchesFullRanking pins the lazy top-K build to the
// straightforward one: a Recommendation (reason included) for every
// candidate, a stable sort by score descending, then the first topK.
func TestRecommendMatchesFullRanking(t *testing.T) {
	f := setup(t, 10)
	ctx := context.Background()
	intent := Intent{ServerID: f.serverID}
	cands, err := f.engine.Select(ctx, intent.ServerID, intent.Request)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Weights{ProfileVoIP, ProfileStreaming, ProfileBulk, ProfileBrowsing, {Loss: 1}} {
		latN := normalizer(cands, func(c selection.Candidate) float64 { return c.AvgLatencyMs })
		jitN := normalizer(cands, func(c selection.Candidate) float64 { return c.JitterMs })
		lossN := normalizer(cands, func(c selection.Candidate) float64 { return c.AvgLossPct })
		bwN := normalizer(cands, func(c selection.Candidate) float64 { return -(c.UpBps + c.DownBps) })
		total := w.Latency + w.Jitter + w.Loss + w.Bandwidth
		all := make([]Recommendation, 0, len(cands))
		for _, c := range cands {
			bad := (w.Latency*latN(c.AvgLatencyMs) + w.Jitter*jitN(c.JitterMs) +
				w.Loss*lossN(c.AvgLossPct) + w.Bandwidth*bwN(-(c.UpBps+c.DownBps))) / total
			all = append(all, Recommendation{Candidate: c, Score: 1 - bad, Reason: reason(c, w)})
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
		for _, topK := range []int{0, 1, 3, len(cands), len(cands) + 2} {
			want := all
			if topK > 0 && topK < len(all) {
				want = all[:topK]
			}
			got, err := Recommend(ctx, f.engine, intent, w, topK)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("weights %+v topK=%d:\ngot  %+v\nwant %+v", w, topK, got, want)
			}
		}
	}
}
