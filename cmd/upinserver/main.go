// Command upinserver runs the UPIN front-end as an HTTP/JSON service — the
// §2.1 Front-end: users submit intents and receive decisions, verification
// verdicts and recommendations over the measured SCIONLab world.
//
// Endpoints:
//
//	GET  /api/health
//	GET  /api/servers
//	GET  /api/nodes
//	GET  /api/paths?server=N
//	POST /api/intent   {"server_id":1,"objective":"latency","profile":"voip",...}
//
// Usage:
//
//	upinserver -addr :8080 -db stats.db
//	upinserver -addr :8080 -measure 1,13      # measure those servers at boot
//	upinserver -shards 4 -max-inflight 64 -rate 50   # sharded serving tier
//
// With -shards > 1 (or any admission/rate/cache flag) the front-end runs
// as the horizontally sharded serving tier (internal/upin/cluster):
// destination-routed replicas with per-shard response caches, per-client
// token-bucket rate limiting, and admission control feeding the 503 drain
// path. See docs/LOAD.md.
//
// Ctrl-C (or SIGTERM) shuts the server down gracefully: in-flight requests
// finish, then the database log is flushed and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/upin"
	"github.com/upin/scionpath/internal/upin/cluster"
)

// serveConfig collects everything buildHandler needs: world construction,
// boot-time measurements, and the serving-tier shape.
type serveConfig struct {
	seed                int64
	dbPath              string
	domain, measureList string
	shards, maxInflight int
	queueDepth          int
	queueTimeout        time.Duration
	rate, burst         float64
	cacheEntries        int
}

// tiered reports whether any flag asks for the cluster tier; without one
// the command serves the plain single front-end, exactly as before.
func (c serveConfig) tiered() bool {
	return c.shards > 1 || c.maxInflight > 0 || c.rate > 0 || c.cacheEntries > 0
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("upinserver", flag.ContinueOnError)
	var (
		addrFlag = fs.String("addr", ":8080", "listen address")
		dbPath   = fs.String("db", "", "measurement database path (in-memory when empty)")
		domain   = fs.String("domain", "16,17,19", "comma-separated ISDs forming the UPIN domain")
		measureS = fs.String("measure", "", "comma-separated server ids to measure at boot")
		seed     = fs.Int64("seed", 1, "simulation seed")

		shards       = fs.Int("shards", 1, "serving replicas behind the rendezvous router (>1 enables the tier)")
		maxInflight  = fs.Int("max-inflight", 0, "admission control: concurrently admitted requests (0 = unlimited)")
		queueDepth   = fs.Int("queue-depth", 32, "admission control: bounded accept queue beyond max-inflight")
		queueTimeout = fs.Duration("queue-timeout", 100*time.Millisecond, "admission control: max wait for a slot before shedding 503")
		rate         = fs.Float64("rate", 0, "per-client token-bucket rate in requests/second (0 = unlimited)")
		burst        = fs.Float64("burst", 10, "per-client token-bucket burst")
		cacheSize    = fs.Int("cache", 0, "per-shard response cache entries (0 = caching off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler, cleanup, err := buildHandler(ctx, serveConfig{
		seed: *seed, dbPath: *dbPath,
		domain: *domain, measureList: *measureS,
		shards: *shards, maxInflight: *maxInflight,
		queueDepth: *queueDepth, queueTimeout: *queueTimeout,
		rate: *rate, burst: *burst, cacheEntries: *cacheSize,
	})
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upinserver", "%v", err)
	}
	defer func() {
		if cerr := cleanup(); cerr != nil {
			fmt.Fprintf(os.Stderr, "upinserver: close: %v\n", cerr)
		}
	}()
	fmt.Printf("upinserver listening on %s\n", *addrFlag)

	srv := &http.Server{
		Addr:    *addrFlag,
		Handler: handler,
		// A public-facing front-end must not let one slow client pin a
		// connection (slowloris) or an idle keep-alive pool grow unbounded.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return cliutil.Fatalf(os.Stderr, "upinserver", "%v", err)
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return cliutil.Fatalf(os.Stderr, "upinserver", "shutdown: %v", err)
		}
		fmt.Println("upinserver stopped")
	}
	return 0
}

// buildHandler wires the world, optional boot-time measurements, and the
// front-end handler — a single upin.Server, or the sharded serving tier
// when cfg.tiered(). The returned cleanup closes the database log.
func buildHandler(ctx context.Context, cfg serveConfig) (http.Handler, func() error, error) {
	w, err := cliutil.NewWorld(cfg.seed, cfg.dbPath)
	if err != nil {
		return nil, nil, err
	}
	if cfg.measureList != "" {
		var ids []int
		for _, part := range strings.Split(cfg.measureList, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, nil, errors.Join(fmt.Errorf("bad server id %q", part), w.Close())
			}
			ids = append(ids, id)
		}
		suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
		if _, err := suite.Run(ctx, measure.RunOpts{
			Iterations: 3, ServerIDs: ids,
			PingCount: 10, PingInterval: 20 * time.Millisecond,
			BwDuration: 500 * time.Millisecond,
		}); err != nil {
			return nil, nil, errors.Join(err, w.Close())
		}
	}
	var isds []addr.ISD
	for _, part := range strings.Split(cfg.domain, ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && v > 0 {
			isds = append(isds, addr.ISD(v))
		}
	}
	explorer := upin.NewDomainExplorer(w.Topo, isds)
	if cfg.tiered() {
		tier := cluster.New(w.DB, w.Daemon, w.Net, explorer, w.Topo, cluster.Config{
			Shards:       cfg.shards,
			MaxInflight:  cfg.maxInflight,
			QueueDepth:   cfg.queueDepth,
			QueueTimeout: cfg.queueTimeout,
			RatePerSec:   cfg.rate,
			Burst:        cfg.burst,
			CacheEntries: cfg.cacheEntries,
		})
		return tier, func() error {
			// Drain the replicas before the log closes underneath them.
			if err := tier.Close(); err != nil {
				return errors.Join(err, w.Close())
			}
			return w.Close()
		}, nil
	}
	engine := selection.New(w.DB, w.Topo)
	srv := upin.NewServer(w.DB, w.Daemon, w.Net, engine, explorer)
	srv.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	return srv, w.Close, nil
}
