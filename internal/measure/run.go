package measure

import (
	"context"
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/bwtest"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/simnet"
)

// Every option struct in this package follows one convention: an
// unexported withDefaults() fills zero values, an exported Validate()
// rejects inconsistent input, and every public entry point applies both
// before doing any work — so Run, Monitor and CollectPaths all reject bad
// input the same way instead of each rolling its own checks.

// RetryPolicy bounds the per-cell retry loop of the campaign engine:
// transient cell-level measurement failures (server unreachable, corrupt
// stored paths) are retried with exponential backoff plus jitter before
// the cell is counted as failed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per cell (>= 1).
	MaxAttempts int
	// BaseBackoff is the wall-clock delay before the first retry; each
	// further retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac in [0,1] randomises each delay by up to that fraction, so
	// retrying cells do not thundering-herd a recovering destination.
	JitterFrac float64
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 3
	}
	if r.BaseBackoff == 0 {
		r.BaseBackoff = 10 * time.Millisecond
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = time.Second
	}
	if r.JitterFrac == 0 {
		r.JitterFrac = 0.5
	}
	return r
}

// Validate implements the package's option convention.
func (r RetryPolicy) Validate() error {
	if r.MaxAttempts < 1 {
		return fmt.Errorf("retry needs MaxAttempts >= 1, have %d", r.MaxAttempts)
	}
	if r.BaseBackoff < 0 || r.MaxBackoff < 0 {
		return fmt.Errorf("retry backoffs must be >= 0, have base %v max %v", r.BaseBackoff, r.MaxBackoff)
	}
	if r.MaxBackoff < r.BaseBackoff {
		return fmt.Errorf("retry MaxBackoff %v < BaseBackoff %v", r.MaxBackoff, r.BaseBackoff)
	}
	if r.JitterFrac < 0 || r.JitterFrac > 1 {
		return fmt.Errorf("retry JitterFrac %v outside [0,1]", r.JitterFrac)
	}
	return nil
}

// Campaign is the shared fault-tolerance configuration of a measurement
// campaign — the one config block RunOpts (and, through it, MonitorOpts)
// carries for the parallel, resumable engine of docs/CAMPAIGN.md.
type Campaign struct {
	// Workers selects the execution engine. 0 (the default) runs the classic
	// strictly sequential loop on the suite's own world. >= 1 runs the
	// sharded campaign engine: the (iteration x destination) cell grid is
	// fanned out across that many workers, each cell measured on a private
	// forked world whose seed derives from Seed, so the merged stats
	// database is identical for every worker count.
	Workers int
	// Name identifies the campaign in the checkpoint journal. Empty derives
	// a name from the seed and iteration count.
	Name string
	// Seed is the campaign seed every per-cell world seed derives from.
	// 0 uses the suite network's own seed.
	Seed int64
	// Resume skips cells already checkpointed in campaign_progress instead
	// of re-measuring them. The measured destinations are not collected
	// again (the checkpoints refer to the paths the interrupted run stored
	// for them); the rest of the catalogue is, after the cells, unless Skip
	// is set. It requires Workers >= 1.
	Resume bool
	// Retry bounds per-cell retries of transient failures.
	Retry RetryPolicy
	// IterationStride spaces the simulated start times of consecutive
	// iterations of one destination, keeping stats identifiers (path id +
	// timestamp) unique across cells. It must exceed the simulated duration
	// of one cell; the 2h default covers the paper-scale parameters.
	IterationStride time.Duration
}

func (c Campaign) withDefaults() Campaign {
	c.Retry = c.Retry.withDefaults()
	if c.IterationStride == 0 {
		c.IterationStride = 2 * time.Hour
	}
	return c
}

// Validate implements the package's option convention.
func (c Campaign) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("campaign Workers %d is negative", c.Workers)
	}
	if c.Resume && c.Workers < 1 {
		return fmt.Errorf("campaign Resume requires the campaign engine (Workers >= 1)")
	}
	if c.IterationStride <= 0 {
		return fmt.Errorf("campaign IterationStride %v must be positive", c.IterationStride)
	}
	return c.Retry.Validate()
}

// RunOpts mirrors the test_suite.sh command line (§5.1) plus the
// measurement parameters of §5.3 and the campaign-engine configuration.
type RunOpts struct {
	// Iterations is the mandatory <iterations> argument: how many times
	// each path is tested.
	Iterations int
	// Skip bypasses paths collection (--skip), meaningful "only if paths
	// have already been collected and have not changed".
	Skip bool
	// SomeOnly constrains execution to the first destination (--some_only).
	SomeOnly bool
	// ServerIDs optionally restricts the run to specific destinations
	// (the paper's 5-destination focus subset). Empty means all.
	ServerIDs []int

	// PingCount/PingInterval are the scion ping parameters (30 / 0.1 s).
	PingCount    int
	PingInterval time.Duration
	// BwDuration and BwTargetBps parameterise the bwtester runs
	// ("3,64,?,12Mbps" and "3,MTU,?,12Mbps" by default).
	BwDuration  time.Duration
	BwTargetBps float64
	// SkipBandwidth runs only the latency/loss measurement (used by the
	// loss experiment to keep the timeline dense).
	SkipBandwidth bool

	Collect CollectOpts
	// Campaign configures the parallel, resumable campaign engine; the
	// zero value keeps the classic sequential runner.
	Campaign Campaign
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Iterations == 0 {
		o.Iterations = 1
	}
	if o.PingCount == 0 {
		o.PingCount = 30
	}
	if o.PingInterval == 0 {
		o.PingInterval = 100 * time.Millisecond
	}
	if o.BwDuration == 0 {
		o.BwDuration = 3 * time.Second
	}
	if o.BwTargetBps == 0 {
		o.BwTargetBps = 12e6
	}
	o.Collect = o.Collect.withDefaults()
	o.Campaign = o.Campaign.withDefaults()
	return o
}

// Validate implements the package's option convention. It assumes defaults
// have been applied (Run does both).
func (o RunOpts) Validate() error {
	if o.Iterations < 1 {
		return fmt.Errorf("measure: run needs Iterations >= 1, have %d", o.Iterations)
	}
	if o.PingCount < 1 || o.PingInterval <= 0 {
		return fmt.Errorf("measure: run needs PingCount >= 1 and a positive PingInterval, have %d / %v",
			o.PingCount, o.PingInterval)
	}
	if o.BwDuration <= 0 || o.BwTargetBps <= 0 {
		return fmt.Errorf("measure: run needs positive BwDuration and BwTargetBps, have %v / %v",
			o.BwDuration, o.BwTargetBps)
	}
	for _, id := range o.ServerIDs {
		if id < 1 {
			return fmt.Errorf("measure: run got non-positive server id %d", id)
		}
	}
	if err := o.Collect.Validate(); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	if err := o.Campaign.Validate(); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	return nil
}

// RunReport summarises a test-suite run.
type RunReport struct {
	Iterations   int
	Destinations int
	PathsTested  int
	StatsStored  int
	// Failures counts measurements that errored; the suite continues past
	// them (fault tolerance, §4.1.2).
	Failures int
	// UnresolvedPaths counts stored paths whose hop-predicate sequence no
	// longer resolves to a live path.
	UnresolvedPaths int
	// SimulatedTime is the total simulated measurement time: the clock
	// advance of a sequential run, or the sum of per-cell advances of a
	// campaign-engine run (both deterministic per seed).
	SimulatedTime time.Duration
	// SkippedCells counts cells a resumed campaign found already
	// checkpointed and did not re-measure.
	SkippedCells int
}

// Suite bundles what a run needs.
type Suite struct {
	DB     *docdb.DB
	Daemon *sciond.Daemon
	// SignStats, when set, is applied to every statistics document before
	// storage — the hook the auth package uses for the paper's statistics
	// authentication design (§4.2.2).
	SignStats func(docdb.Document) error
}

// Run executes the test-suite: optional collection, then the (iteration x
// destination x path) measurement grid — for each cell: ping (latency +
// loss), bwtest with 64-byte packets, bwtest with MTU-sized packets, both
// directions. Statistics for a cell are batch-inserted only after all its
// paths were tested once, the fault-tolerance/I/O trade-off of §4.2.2.
//
// With opts.Campaign.Workers == 0 the grid runs strictly sequentially on
// the suite's own world, after the whole catalogue was collected. With
// Workers >= 1 it runs on the sharded, resumable campaign engine (see
// docs/CAMPAIGN.md): only the measured destinations are collected before
// the cells, the rest of the catalogue after them; cells are measured on
// private forked worlds, completed cells are checkpointed in the
// campaign_progress collection, and the stored statistics are identical
// for every worker count given the same campaign seed.
//
// Cancellation is honored at cell boundaries: when ctx is cancelled,
// in-flight cells finish and checkpoint, remaining cells are skipped, and
// Run returns ctx's error alongside the partial report.
func (s *Suite) Run(ctx context.Context, opts RunOpts) (RunReport, error) {
	opts = opts.withDefaults()
	rep := RunReport{Iterations: opts.Iterations}
	if err := opts.Validate(); err != nil {
		return rep, err
	}
	// Timestamps are the suite's hot ordering: newestStatsTime sorts by
	// them, PruneStats range-deletes on them. An ordered index turns both
	// into index scans instead of full sorts/scans as history grows.
	s.DB.Collection(ColStats).EnsureSortedIndex(FTimestamp)
	if opts.Campaign.Workers >= 1 {
		return s.runCampaign(ctx, opts)
	}
	return s.runSequential(ctx, opts)
}

// runSequential is the classic strictly ordered runner on the suite's own
// shared world; its output is byte-compatible with the pre-engine suite.
func (s *Suite) runSequential(ctx context.Context, opts RunOpts) (RunReport, error) {
	rep := RunReport{Iterations: opts.Iterations}

	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		return rep, err
	}
	if !opts.Skip {
		if _, err := CollectPaths(ctx, s.DB, s.Daemon, opts.Collect); err != nil {
			return rep, err
		}
	}
	servers, _, err := s.campaignServers(opts)
	if err != nil {
		return rep, err
	}
	rep.Destinations = len(servers)

	statsCol := s.DB.Collection(ColStats)
	// A fresh process starts the simulated clock at zero; when resuming a
	// persisted database, move past the newest stored measurement so stats
	// identifiers (path id + timestamp) stay unique.
	if newest, ok := newestStatsTime(statsCol); ok {
		if s.Daemon.Network().Now() <= newest {
			s.Daemon.Network().Advance(newest - s.Daemon.Network().Now() + time.Millisecond)
		}
	}
	start := s.Daemon.Network().Now()
	for it := 0; it < opts.Iterations; it++ {
		for _, srv := range servers {
			// Cancellation boundary: one (iteration, destination) cell.
			if err := ctx.Err(); err != nil {
				rep.SimulatedTime = s.Daemon.Network().Now() - start
				return rep, fmt.Errorf("measure: run cancelled: %w", err)
			}
			docs, counts, err := measureDestination(s.Daemon, s.DB, srv, opts)
			if err != nil {
				// Destination unusable right now: record nothing for it,
				// keep going (server failure tolerance, §4.1.2).
				rep.Failures++
				continue
			}
			rep.PathsTested += counts.tested
			rep.Failures += counts.failures
			rep.UnresolvedPaths += counts.unresolved
			if len(docs) == 0 {
				continue
			}
			if err := s.signAll(docs); err != nil {
				return rep, err
			}
			// Batch insertion per destination (§4.2.2).
			if err := statsCol.InsertMany(docs); err != nil {
				return rep, fmt.Errorf("measure: storing stats for server %d: %w", srv.ID, err)
			}
			rep.StatsStored += len(docs)
			if err := s.DB.Flush(); err != nil {
				return rep, err
			}
		}
	}
	rep.SimulatedTime = s.Daemon.Network().Now() - start
	return rep, nil
}

// campaignServers resolves the destination set of a run: the servers it
// measures and, in rest, the remainder of the catalogue (both in id order).
func (s *Suite) campaignServers(opts RunOpts) (measured, rest []Server, err error) {
	servers, err := Servers(s.DB)
	if err != nil {
		return nil, nil, err
	}
	want := map[int]bool{}
	for _, id := range opts.ServerIDs {
		want[id] = true
	}
	for i, srv := range servers {
		if (opts.SomeOnly && i > 0) || (len(want) > 0 && !want[srv.ID]) {
			rest = append(rest, srv)
		} else {
			measured = append(measured, srv)
		}
	}
	return measured, rest, nil
}

// signAll applies the SignStats hook to a stats batch.
func (s *Suite) signAll(docs []docdb.Document) error {
	if s.SignStats == nil {
		return nil
	}
	for _, d := range docs {
		if err := s.SignStats(d); err != nil {
			return fmt.Errorf("measure: signing stats: %w", err)
		}
	}
	return nil
}

// newestStatsTime returns the timestamp of the newest stored measurement.
func newestStatsTime(statsCol *docdb.Collection) (time.Duration, bool) {
	last := statsCol.FindOne(docdb.Query{SortBy: FTimestamp, SortDesc: true})
	if last == nil {
		return 0, false
	}
	ms, ok := asInt(last[FTimestamp])
	if !ok {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// cellCounts aggregates one cell's per-path outcomes.
type cellCounts struct {
	tested     int
	failures   int
	unresolved int
}

// measureDestination measures every stored path of one destination once on
// the given daemon's world and returns the stats documents to
// batch-insert. A returned error is a cell-level failure (stored paths
// unreadable, destination unreachable) — the transient class the campaign
// engine retries; per-path measurement errors are recorded as data in the
// documents instead.
func measureDestination(daemon *sciond.Daemon, db *docdb.DB, srv Server, opts RunOpts) ([]docdb.Document, cellCounts, error) {
	var counts cellCounts
	pathDocs, err := PathsForServer(db, srv.ID)
	if err != nil {
		return nil, counts, fmt.Errorf("measure: stored paths for server %d: %w", srv.ID, err)
	}
	live, err := daemon.PathsTo(srv.Address.IA)
	if err != nil {
		return nil, counts, fmt.Errorf("measure: server %d unreachable: %w", srv.ID, err)
	}
	net := daemon.Network()
	var docs []docdb.Document
	for _, pd := range pathDocs {
		p := pathmgr.FindBySequence(live, pd.Sequence)
		if p == nil {
			counts.unresolved++
			continue
		}
		counts.tested++
		ts := net.Now()
		doc := docdb.Document{
			"_id":      StatsID(pd.ID, ts),
			FPathID:    pd.ID,
			FServerID:  srv.ID,
			FTimestamp: ts.Milliseconds(),
			FHops:      pd.Hops,
			FISDs:      anySlice(pd.ISDs),
			FTargetBps: opts.BwTargetBps,
		}

		// Latency and loss (scion ping -c 30 --interval 0.1s).
		stats, err := scmp.Ping(net, p, scmp.PingOpts{
			Count: opts.PingCount, Interval: opts.PingInterval,
		})
		if err != nil {
			counts.failures++
			doc[FError] = err.Error()
			docs = append(docs, doc)
			continue
		}
		doc[FLoss] = stats.Loss
		if stats.Received > 0 {
			doc[FAvgLatency] = float64(stats.Avg) / float64(time.Millisecond)
			doc[FMdev] = float64(stats.Mdev) / float64(time.Millisecond)
		}

		if !opts.SkipBandwidth {
			// Bandwidth with 64-byte packets, both directions (§5.3).
			if res, err := bandwidth(net, p, 64, opts); err != nil {
				counts.failures++
				doc[FError] = err.Error()
			} else {
				doc[FBwUp64] = res.CS.AchievedBps
				doc[FBwDown64] = res.SC.AchievedBps
			}
			// Bandwidth with MTU-sized packets.
			if res, err := bandwidth(net, p, p.MTU, opts); err != nil {
				counts.failures++
				doc[FError] = err.Error()
			} else {
				doc[FBwUpMTU] = res.CS.AchievedBps
				doc[FBwDownMTU] = res.SC.AchievedBps
			}
		}
		docs = append(docs, doc)
	}
	return docs, counts, nil
}

func bandwidth(net *simnet.Network, p *pathmgr.Path, size int, opts RunOpts) (bwtest.Result, error) {
	count := int(opts.BwTargetBps * opts.BwDuration.Seconds() / float64(size*8))
	if count < 1 {
		count = 1
	}
	params := bwtest.Params{
		Duration:    opts.BwDuration,
		PacketBytes: size,
		PacketCount: count,
		TargetBps:   opts.BwTargetBps,
	}
	return bwtest.Run(net, p, params, bwtest.Params{})
}

func anySlice(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
