package measure_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"testing"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/experiments"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// digestWorld is a small topology.Generate world of the benchmark's shape:
// every non-core AS houses a server and the local AS is the first of them.
var digestWorld = topology.GenerateSpec{
	Seed: 1000, ISDs: 4, CoresPerISD: 2, NonCorePerISD: 10,
	MaxChildren: 8, CoreDegree: 4, MultiParentProb: 0.6,
}

// campaignDigest runs a cold and then a repeat campaign at experiments.Fast
// effort on a fresh world and returns the SHA-256 of the stats collection,
// sorted by _id and JSON-encoded (which sorts each document's keys).
func campaignDigest(t *testing.T, topo *topology.Topology, local addr.IA, seed int64, dests []int) string {
	t.Helper()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net, local)
	if err != nil {
		t.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		t.Fatal(err)
	}
	suite := &measure.Suite{DB: db, Daemon: daemon}
	f := experiments.Fast
	for _, name := range []string{"cold", "repeat"} {
		opts := measure.RunOpts{
			Iterations:   f.Iterations,
			ServerIDs:    dests,
			PingCount:    f.PingCount,
			PingInterval: f.PingInterval,
			BwDuration:   f.BwDuration,
			Collect:      measure.CollectOpts{MaxPaths: 200, HopSlack: 3},
		}
		opts.Campaign.Workers = 2
		opts.Campaign.Name = name
		rep, err := suite.Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s campaign: %v", name, err)
		}
		if rep.PathsTested == 0 || rep.StatsStored != rep.PathsTested {
			t.Fatalf("%s campaign: %+v", name, rep)
		}
	}
	docs := db.Collection(measure.ColStats).Find(docdb.Query{})
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID() < docs[j].ID() })
	b, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCampaignStatsDigest pins the measured statistics of whole campaigns
// byte for byte, where the shape tests elsewhere check counts and ranges.
// A change to the physical model, its RNG draw order or the campaign
// engine's scheduling moves the digests; a change made for speed must
// leave them as they are.
func TestCampaignStatsDigest(t *testing.T) {
	gen, err := topology.Generate(digestWorld)
	if err != nil {
		t.Fatal(err)
	}
	var genLocal addr.IA
	for _, as := range gen.ASes() {
		if as.NumServers > 0 {
			genLocal = as.IA
			break
		}
	}
	var genDests []int
	// Every fifth server past the local one's (id 1): a spread over the ISDs.
	for id := 2; id <= 40; id += 5 {
		genDests = append(genDests, id)
	}
	cases := []struct {
		name  string
		topo  *topology.Topology
		local addr.IA
		dests []int
		seed  int64
		want  string
	}{
		{"generated/seed1", gen, genLocal, genDests, 1,
			"4cc992a545ce3c3b119298df076bff177d54e4d7a286746bd19d413c911801f4"},
		{"generated/seed2", gen, genLocal, genDests, 2,
			"8031edbe5a05ce6cd9d05b547e6891df308d12f2663483caaf311285dd4a463e"},
		{"paper/seed1", topology.DefaultWorld(), topology.MyAS, nil, 1,
			"036aa1b5f5cec7f8aa038086f3667d5201855d1b3f91cfc0736f095b0205840e"},
		{"paper/seed2", topology.DefaultWorld(), topology.MyAS, nil, 2,
			"afeb3ef56170bb090428643ef65ccceb118a51ada581fcb0c744ee24838bcc5d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := campaignDigest(t, c.topo, c.local, c.seed, c.dests); got != c.want {
				t.Errorf("stats digest %s, want %s", got, c.want)
			}
		})
	}
}
