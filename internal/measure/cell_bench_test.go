package measure

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// cellWorld is the benchmark's world B: 20 ISDs of 2 cores and 48 non-core
// ASes each, every non-core AS housing a server.
var cellWorld = topology.GenerateSpec{
	Seed: 1000, ISDs: 20, CoresPerISD: 2, NonCorePerISD: 48,
	MaxChildren: 8, CoreDegree: 4, MultiParentProb: 0.6,
}

// cellFixture is one measured destination of world B with its stored
// paths collected as the benchmark's campaign collects them.
type cellFixture struct {
	suite *Suite
	srv   Server
	opts  RunOpts
	paths []*pathmgr.Path
}

// newCellFixture builds world B, collects every 40th server's paths (the
// campaign's spread over the catalogue) and keeps the destination with the
// median number of stored paths.
func newCellFixture(b *testing.B) *cellFixture {
	b.Helper()
	topo, err := topology.Generate(cellWorld)
	if err != nil {
		b.Fatal(err)
	}
	var local addr.IA
	for _, as := range topo.ASes() {
		if as.NumServers > 0 {
			local = as.IA
			break
		}
	}
	net := simnet.New(topo, simnet.Options{Seed: 1})
	daemon, err := sciond.New(topo, net, local)
	if err != nil {
		b.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := SeedServers(db, topo); err != nil {
		b.Fatal(err)
	}
	servers, err := Servers(db)
	if err != nil {
		b.Fatal(err)
	}
	var dests []Server
	for i := 1; i < len(servers); i += 40 {
		dests = append(dests, servers[i])
	}
	// experiments.Fast effort (the package cannot import experiments).
	opts := RunOpts{
		PingCount:    10,
		PingInterval: 10 * time.Millisecond,
		BwDuration:   500 * time.Millisecond,
		Collect:      CollectOpts{MaxPaths: 200, HopSlack: 3},
	}.withDefaults()
	if _, err := collectServers(context.Background(), db, daemon, opts.Collect, dests); err != nil {
		b.Fatal(err)
	}
	type stored struct {
		srv Server
		n   int
	}
	var all []stored
	for _, srv := range dests {
		docs, err := PathsForServer(db, srv.ID)
		if err != nil {
			b.Fatal(err)
		}
		if len(docs) > 0 {
			all = append(all, stored{srv, len(docs)})
		}
	}
	if len(all) == 0 {
		b.Fatal("no destination has stored paths")
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].n < all[j].n })
	srv := all[len(all)/2].srv
	docs, err := PathsForServer(db, srv.ID)
	if err != nil {
		b.Fatal(err)
	}
	live, err := daemon.PathsTo(srv.Address.IA)
	if err != nil {
		b.Fatal(err)
	}
	f := &cellFixture{suite: &Suite{DB: db, Daemon: daemon}, srv: srv, opts: opts}
	for _, pd := range docs {
		if p := pathmgr.FindBySequence(live, pd.Sequence); p != nil {
			f.paths = append(f.paths, p)
		}
	}
	return f
}

// BenchmarkCell splits one campaign cell of the benchmark's world B into
// its parts, each over every stored path of one destination: the pings,
// the 64-byte and the MTU-sized bandwidth tests (both directions), and the
// store of the cell's statistics documents (upsert, checkpoint, flush).
// One op is one part of one cell; the parts sum to about one cell.
func BenchmarkCell(b *testing.B) {
	f := newCellFixture(b)
	net := f.suite.Daemon.Network()
	measurePaths := func(b *testing.B, fn func(n *simnet.Network, p *pathmgr.Path) error) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := net.Fork(int64(i))
			for _, p := range f.paths {
				if err := fn(n, p); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(f.paths)), "paths")
	}
	b.Run("ping", func(b *testing.B) {
		measurePaths(b, func(n *simnet.Network, p *pathmgr.Path) error {
			_, err := scmp.Ping(n, p, scmp.PingOpts{Count: f.opts.PingCount, Interval: f.opts.PingInterval})
			return err
		})
	})
	b.Run("bwtest-64", func(b *testing.B) {
		measurePaths(b, func(n *simnet.Network, p *pathmgr.Path) error {
			_, err := bandwidth(n, p, 64, f.opts)
			return err
		})
	})
	b.Run("bwtest-MTU", func(b *testing.B) {
		measurePaths(b, func(n *simnet.Network, p *pathmgr.Path) error {
			_, err := bandwidth(n, p, p.MTU, f.opts)
			return err
		})
	})
	b.Run("store", func(b *testing.B) {
		daemon := f.suite.Daemon.Fork(net.Fork(1))
		docs, counts, err := measureDestination(daemon, f.suite.DB, f.srv, f.opts)
		if err != nil || counts.tested == 0 {
			b.Fatalf("measuring the cell: %v, %+v", err, counts)
		}
		run := &campaignRun{suite: f.suite, opts: f.opts, name: "bench"}
		res := cellResult{docs: docs, counts: counts, attempts: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run.storeCell(gridCell{srv: f.srv}, res); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(docs)), "docs")
	})
}
