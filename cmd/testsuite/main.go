// Command testsuite is the Go port of the paper's test_suite.sh wrapper
// (§5.1): it collects paths to every destination in availableServers and
// runs the measurement campaign, storing one stats document per path per
// iteration in the database. The campaign runs on the parallel, resumable
// engine (docs/CAMPAIGN.md): work is sharded across -workers, completed
// cells are checkpointed, and an interrupted run (Ctrl-C) can be resumed
// with -resume without re-measuring or duplicating data.
//
// Usage (mirrors "./test_suite.sh 100 --skip"):
//
//	testsuite 100 --skip
//	testsuite 20 --some-only --db stats.db
//	testsuite 5 --servers 2,5,9 --target 150Mbps
//	testsuite 20 --db stats.db --workers 4       # parallel campaign
//	testsuite 20 --db stats.db --resume          # continue after Ctrl-C
//	testsuite --chaos-seed 7 --db /tmp/chaos.db  # reproduce one chaos seed
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/upin/scionpath/internal/bwtest"
	chaospkg "github.com/upin/scionpath/internal/chaos"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/measure"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("testsuite", flag.ContinueOnError)
	var (
		skip     = fs.Bool("skip", false, "bypass paths collection (paths must already be collected)")
		someOnly = fs.Bool("some-only", false, "test only the first destination")
		servers  = fs.String("servers", "", "comma-separated server ids to test (default all)")
		dbPath   = fs.String("db", "", "database directory for persistent storage (default in-memory)")
		target   = fs.String("target", "12Mbps", "bandwidth target for the bwtester runs")
		pingN    = fs.Int("ping-count", 30, "echo packets per latency measurement")
		pingIvl  = fs.Duration("ping-interval", 100*time.Millisecond, "echo packet interval")
		bwDur    = fs.Duration("bw-duration", 3*time.Second, "duration of each bandwidth flow")
		noBw     = fs.Bool("no-bandwidth", false, "skip the bandwidth measurements")
		csvPath  = fs.String("csv", "", "export the stored statistics to this CSV file afterwards")
		seed     = fs.Int64("seed", 1, "simulation seed")
		workers  = fs.Int("workers", 1, "campaign workers (0 = legacy strictly sequential runner)")
		resume   = fs.Bool("resume", false, "resume an interrupted campaign from its checkpoints (needs --db)")
		chaos    = fs.Int64("chaos-seed", 0, "run the chaos harness for this seed instead of a campaign (see docs/CHAOS.md)")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: testsuite <iterations> [flags]\n")
		fmt.Fprintf(os.Stderr, "       testsuite --chaos-seed <seed> [--db /tmp/chaos.db]\n")
		fs.PrintDefaults()
	}
	positional, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if *chaos != 0 {
		if len(positional) != 0 {
			fs.Usage()
			return 2
		}
		return runChaos(*chaos, *dbPath)
	}
	if len(positional) != 1 {
		fs.Usage()
		return 2
	}
	iterations, err := strconv.Atoi(positional[0])
	if err != nil || iterations < 1 {
		return cliutil.Fatalf(os.Stderr, "testsuite", "iterations %q must be a positive integer", positional[0])
	}
	targetBps, err := parseTarget(*target)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "testsuite", "%v", err)
	}
	if *resume && *dbPath == "" {
		return cliutil.Fatalf(os.Stderr, "testsuite", "--resume needs --db (checkpoints live in the database)")
	}

	w, err := cliutil.NewWorld(*seed, *dbPath)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "testsuite", "%v", err)
	}
	defer w.Close()

	var ids []int
	if *servers != "" {
		for _, part := range strings.Split(*servers, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return cliutil.Fatalf(os.Stderr, "testsuite", "bad server id %q", part)
			}
			ids = append(ids, id)
		}
	}

	// Ctrl-C cancels the context; the campaign engine finishes in-flight
	// cells, checkpoints them, and returns so --resume can pick up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	opts := measure.RunOpts{
		Iterations:    iterations,
		Skip:          *skip,
		SomeOnly:      *someOnly,
		ServerIDs:     ids,
		PingCount:     *pingN,
		PingInterval:  *pingIvl,
		BwDuration:    *bwDur,
		BwTargetBps:   targetBps,
		SkipBandwidth: *noBw,
	}
	opts.Campaign.Workers = *workers
	opts.Campaign.Resume = *resume
	rep, err := suite.Run(ctx, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Printf("test-suite interrupted: %d stats stored so far; rerun with --resume to continue\n",
				rep.StatsStored)
			return 130
		}
		return cliutil.Fatalf(os.Stderr, "testsuite", "%v", err)
	}
	fmt.Printf("test-suite finished: %d iterations x %d destinations\n", rep.Iterations, rep.Destinations)
	fmt.Printf("  paths tested:      %d\n", rep.PathsTested)
	fmt.Printf("  stats stored:      %d\n", rep.StatsStored)
	fmt.Printf("  failures:          %d\n", rep.Failures)
	fmt.Printf("  unresolved paths:  %d\n", rep.UnresolvedPaths)
	fmt.Printf("  simulated time:    %v\n", rep.SimulatedTime.Round(time.Second))
	if rep.SkippedCells > 0 {
		fmt.Printf("  resumed cells:     %d (already checkpointed)\n", rep.SkippedCells)
	}
	if *dbPath != "" {
		fmt.Printf("  database:          %s\n", *dbPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "testsuite", "csv: %v", err)
		}
		rows, err := measure.ExportStatsCSV(w.DB, f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "testsuite", "csv: %v", err)
		}
		fmt.Printf("  csv export:        %s (%d rows)\n", *csvPath, rows)
	}
	return 0
}

// runChaos executes one seeded chaotic campaign (crashes, resumes, write
// faults, log truncation, network weather, lookup failures) against its
// fault-free oracle and verifies the harness invariants. With an empty
// dbPath the log lives in a temporary directory; a given dbPath must not
// exist yet (the harness owns the log from birth, including the damage it
// inflicts on it).
func runChaos(seed int64, dbPath string) int {
	path := dbPath
	if path == "" {
		dir, err := os.MkdirTemp("", "chaos-*")
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "testsuite", "chaos: %v", err)
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "chaos.db")
	} else if _, err := os.Stat(path); err == nil {
		return cliutil.Fatalf(os.Stderr, "testsuite", "chaos: %s already exists; the harness needs a fresh database path", path)
	}
	res, err := chaospkg.Run(context.Background(), seed, path)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "testsuite", "%v", err)
	}
	defer res.Close()
	verr := chaospkg.Verify(context.Background(), res)
	fmt.Printf("chaos seed %d: %d round(s), %d crash(es) planned, %d write fault(s) planned\n",
		seed, res.Rounds, len(res.Plan.Crashes), len(res.Plan.Writes))
	fmt.Printf("  network weather:   %d outage(s), %d episode(s)\n",
		len(res.Plan.Network.Outages), len(res.Plan.Network.Episodes))
	fmt.Printf("  stats stored:      %d (oracle %d)\n", res.Report.StatsStored, res.OracleReport.StatsStored)
	fmt.Printf("  cell failures:     %d\n", res.Report.Failures)
	if dbPath != "" {
		fmt.Printf("  database:          %s\n", dbPath)
	}
	if verr != nil {
		fmt.Fprintf(os.Stderr, "testsuite: chaos: INVARIANT VIOLATION: %v\n", verr)
		return 1
	}
	fmt.Println("  invariants:        all 4 hold")
	return 0
}

func parseTarget(s string) (float64, error) {
	p, err := bwtest.ParseParams("3,1000,?,"+s, 1472)
	if err != nil {
		return 0, fmt.Errorf("bad target %q", s)
	}
	return p.TargetBps, nil
}
