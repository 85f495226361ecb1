package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/experiments"
	"github.com/upin/scionpath/internal/load"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
	"github.com/upin/scionpath/internal/upin/cluster"
)

// scale sizes the two worlds. full is what BENCHMARK.json measures; the
// smoke test shrinks both so all five workloads run in a few seconds.
type scale struct {
	// Catalogue A: load.SeedSynthetic over DefaultWorld.
	destsA, pathsA, statsA int
	// World B: topology.Generate, every non-core AS houses a server (so
	// CollectPaths walks the whole catalogue), destsB of them measured.
	worldB topology.GenerateSpec
	destsB int
	// warmup is the number of requests issued before a timed window;
	// they are part of set-up, not of the window.
	warmup int
	// traced bounds the traced pass: operations replayed layer by layer.
	traced int
}

var full = scale{
	destsA: 6, pathsA: 1000, statsA: 2,
	worldB: topology.GenerateSpec{
		Seed: 1000, ISDs: 20, CoresPerISD: 2, NonCorePerISD: 48,
		MaxChildren: 8, CoreDegree: 4, MultiParentProb: 0.6,
	},
	destsB: 24,
	warmup: 4000,
	traced: 2000,
}

// The worlds are the system's data and do not vary with -seed: the seed
// draws the traffic (destination popularity, request mix, intent pool,
// cell contents) and the simulated network's weather. A seed-dependent
// catalogue would put the path-count lottery of topology.Generate into
// every A/A spread.
const catalogueSeed = 1

// env is one built world: topology, simulated network, daemon, database.
type env struct {
	topo     *topology.Topology
	net      *simnet.Network
	daemon   *sciond.Daemon
	db       *docdb.DB
	explorer *upin.DomainExplorer
	dests    []int

	// Set-up accounting for the per-layer lines.
	seedDocs    int
	seedTime    time.Duration
	campaignRep measure.RunReport
}

// newEnvA builds catalogue A: the 10³-candidate regime ROADMAP quotes.
func newEnvA(sc scale, seed int64) (*env, error) {
	topo := topology.DefaultWorld()
	net2 := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net2, topology.MyAS)
	if err != nil {
		return nil, err
	}
	db := docdb.MustOpen()
	t0 := time.Now()
	dests, err := load.SeedSynthetic(db, topo, sc.destsA, sc.pathsA, sc.statsA, catalogueSeed)
	if err != nil {
		return nil, err
	}
	return &env{
		topo: topo, net: net2, daemon: daemon, db: db, dests: dests,
		explorer: upin.NewDomainExplorer(topo, []addr.ISD{16, 17, 19}),
		seedDocs: sc.destsA * sc.pathsA * (1 + sc.statsA),
		seedTime: time.Since(t0),
	}, nil
}

// newEnvB builds world B with an empty measurement database: the
// generated topology, its beaconing (inside sciond.New) and the full
// server catalogue. The local AS is the first leaf of ISD 1.
func newEnvB(sc scale, seed int64) (*env, error) {
	topo, err := topology.Generate(sc.worldB)
	if err != nil {
		return nil, err
	}
	var local addr.IA
	for _, as := range topo.ASes() {
		if as.NumServers > 0 {
			local = as.IA
			break
		}
	}
	net2 := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net2, local)
	if err != nil {
		return nil, err
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		return nil, err
	}
	servers, err := measure.Servers(db)
	if err != nil {
		return nil, err
	}
	if len(servers) < sc.destsB+1 {
		return nil, fmt.Errorf("world B offers %d servers, need %d", len(servers), sc.destsB+1)
	}
	// Spread the measured destinations over the catalogue (and so over the
	// ISDs), skipping the local AS's own server (id 1) and the few ASes
	// beaconing leaves without a path from it.
	step := (len(servers) - 1) / sc.destsB
	dests := make([]int, 0, sc.destsB)
	for off := 0; off < step && len(dests) < sc.destsB; off++ {
		for i := 1 + off; i < len(servers) && len(dests) < sc.destsB; i += step {
			if paths, err := daemon.PathsTo(servers[i].Address.IA); err == nil && len(paths) > 0 {
				dests = append(dests, servers[i].ID)
			}
		}
	}
	slices.Sort(dests)
	if len(dests) < sc.destsB {
		return nil, fmt.Errorf("world B: only %d of %d destinations are reachable", len(dests), sc.destsB)
	}
	// Half the ISDs are "the domain" the verifier can vouch for.
	var domain []addr.ISD
	for i, isd := range topo.ISDs() {
		if i%2 == 0 {
			domain = append(domain, isd)
		}
	}
	return &env{
		topo: topo, net: net2, daemon: daemon, db: db, dests: dests,
		explorer: upin.NewDomainExplorer(topo, domain),
	}, nil
}

// campaignOpts is the measurement campaign every world-B workload runs:
// experiments.Fast effort over the measured destinations, the collector
// widened so generated worlds keep their longer alternatives.
func campaignOpts(e *env, workers int, name string) measure.RunOpts {
	f := experiments.Fast
	opts := measure.RunOpts{
		Iterations:   f.Iterations,
		ServerIDs:    e.dests,
		PingCount:    f.PingCount,
		PingInterval: f.PingInterval,
		BwDuration:   f.BwDuration,
		Collect:      measure.CollectOpts{MaxPaths: 200, HopSlack: 3},
	}
	opts.Campaign.Workers = workers
	opts.Campaign.Name = name
	return opts
}

// measureB runs the real sequential campaign that fills world B's
// database at set-up of intent-mix.
func (e *env) measureB(ctx context.Context) error {
	suite := &measure.Suite{DB: e.db, Daemon: e.daemon}
	rep, err := suite.Run(ctx, campaignOpts(e, 0, ""))
	if err != nil {
		return err
	}
	if rep.Failures != 0 || rep.PathsTested == 0 || rep.StatsStored != rep.PathsTested {
		return fmt.Errorf("set-up campaign: %+v", rep)
	}
	e.campaignRep = rep
	return nil
}

// tier is the serving tier hosted in-process on a loopback listener, plus
// the one HTTP client every fleet goroutine shares.
type tier struct {
	router  *cluster.Router
	srv     *http.Server
	served  chan struct{} // closed when Serve returns
	baseURL string
	client  *http.Client
	newTime time.Duration // cluster.New
}

// tierFull is the production-shaped tier: four shards, response caches,
// and limiter and admission gate switched on with limits the fleet never
// reaches — their bookkeeping is on the request path, their refusals are
// not (cluster.shed and cluster.rate_limited must read 0).
var tierFull = cluster.Config{
	Shards: 4, CacheEntries: 512,
	MaxInflight: 64, QueueDepth: 64, QueueTimeout: time.Second,
	RatePerSec: 1e6, Burst: 1e6,
}

// tierBare is one shard with cache, limiter and gate off: every request
// reaches the engine.
var tierBare = cluster.Config{Shards: 1}

func clients() int { return runtime.GOMAXPROCS(0) }

func startTier(e *env, cfg cluster.Config) (*tier, error) {
	t0 := time.Now()
	router := cluster.New(e.db, e.daemon, e.net, e.explorer, e.topo, cfg)
	newTime := time.Since(t0)
	srv, served, baseURL, err := listen(router)
	if err != nil {
		return nil, err
	}
	n := clients()
	return &tier{
		router: router, srv: srv, served: served, baseURL: baseURL, newTime: newTime,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
			Timeout:   10 * time.Second,
		},
	}, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, chan struct{}, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return srv, served, "http://" + ln.Addr().String(), nil
}

// stop shuts the tier down and waits for the serve goroutine.
func (t *tier) stop() error {
	t.client.CloseIdleConnections()
	err := t.srv.Close()
	<-t.served
	if cerr := t.router.Close(); err == nil {
		err = cerr
	}
	return err
}
