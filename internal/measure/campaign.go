package measure

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/upin/scionpath/internal/docdb"
)

// The campaign engine (docs/CAMPAIGN.md) fans the (iteration x destination)
// cell grid across a worker pool. Each cell is measured on a private forked
// world whose seed derives only from (campaign seed, server, iteration,
// attempt), so results do not depend on worker count or scheduling — a
// 4-worker run stores exactly the statistics a 1-worker run stores.
// Completed cells are checkpointed in the campaign_progress collection;
// an interrupted campaign resumed with Resume re-measures nothing.

// cell is one (iteration, destination) grid point.
type gridCell struct {
	iteration int
	srv       Server
}

// cellResult is the outcome of measuring one cell. A cell whose attempts
// were all exhausted has no docs and counts one cell-level failure.
type cellResult struct {
	docs     []docdb.Document
	counts   cellCounts
	simd     time.Duration // simulated time the cell's measurements consumed
	attempts int           // tries used (1 = first attempt succeeded)
}

// campaignRun carries one campaign execution. Everything above the mutex is
// fixed before the workers start; mu guards the cross-worker aggregate
// below it.
type campaignRun struct {
	suite  *Suite
	opts   RunOpts
	name   string
	seed   int64
	base   time.Duration // simulated start of iteration 0
	stride time.Duration

	mu       sync.Mutex
	rep      RunReport
	firstErr error
}

// runCampaign executes Run on the campaign engine (Workers >= 1). The first
// measurement does not wait for the catalogue: only the measured
// destinations are collected up front; the rest of the catalogue is one
// trailing job behind the cells (docs/CAMPAIGN.md "Sharding: the cell
// grid").
func (s *Suite) runCampaign(ctx context.Context, opts RunOpts) (RunReport, error) {
	rep := RunReport{Iterations: opts.Iterations}
	if err := SeedServers(s.DB, s.Daemon.Topology()); err != nil {
		return rep, err
	}
	servers, rest, err := s.campaignServers(opts)
	if err != nil {
		return rep, err
	}
	// A resumed campaign never re-collects a measured destination: that
	// could reshape the cell grid the checkpoints refer to.
	if !opts.Skip && !opts.Campaign.Resume {
		if len(servers)+len(rest) == 0 {
			return rep, errNoServers
		}
		if _, err := collectServers(ctx, s.DB, s.Daemon, opts.Collect, servers); err != nil {
			return rep, err
		}
	}
	rep.Destinations = len(servers)

	run, err := s.prepareCampaign(opts, servers)
	if err != nil {
		return rep, err
	}
	run.rep = rep

	// Fold already-checkpointed cells into the report and queue the rest.
	progress := s.DB.Collection(ColProgress)
	var jobs []func()
	for it := 0; it < opts.Iterations; it++ {
		for _, srv := range servers {
			if opts.Campaign.Resume {
				if doc := progress.Get(CellID(run.name, it, srv.ID)); doc != nil {
					run.foldCheckpoint(doc)
					continue
				}
			}
			c := gridCell{iteration: it, srv: srv}
			jobs = append(jobs, func() { run.runCell(ctx, c) })
		}
	}
	// The unmeasured destinations are one job, not a fan-out: a probing
	// collect draws from the suite world's RNG, so its order must not depend
	// on the worker count. A resumed campaign runs it too — it is idempotent
	// and writes nothing for what the interrupted run already stored.
	if !opts.Skip && len(rest) > 0 {
		jobs = append(jobs, func() {
			// Cancellation is reported once, below, as the campaign's.
			if _, err := collectServers(ctx, s.DB, s.Daemon, opts.Collect, rest); err != nil && ctx.Err() == nil {
				run.recordFatal(err)
			}
		})
	}

	queue := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < opts.Campaign.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range queue {
				// Cancellation (and first fatal error) boundary: a job that
				// already started finishes — a cell checkpoints, the
				// collect stops after the destination it is on; queued jobs
				// are drained unrun.
				if ctx.Err() != nil || run.failedFatally() {
					continue
				}
				job()
			}
		}()
	}
	for _, job := range jobs {
		queue <- job
	}
	close(queue)
	wg.Wait()

	run.mu.Lock()
	rep, err = run.rep, run.firstErr
	run.mu.Unlock()
	if err != nil {
		return rep, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return rep, fmt.Errorf("measure: campaign %q interrupted (resume with Campaign.Resume): %w", run.name, cerr)
	}
	return rep, nil
}

// prepareCampaign resolves the campaign identity and its checkpoint
// metadata document. A fresh campaign clears leftover progress under the
// same name and records seed, time base, stride and a config fingerprint;
// a resumed campaign loads them back and rejects a changed configuration.
func (s *Suite) prepareCampaign(opts RunOpts, servers []Server) (*campaignRun, error) {
	run := &campaignRun{
		suite:  s,
		opts:   opts,
		seed:   opts.Campaign.Seed,
		stride: opts.Campaign.IterationStride,
	}
	if run.seed == 0 {
		run.seed = s.Daemon.Network().Seed()
	}
	run.name = opts.Campaign.Name
	if run.name == "" {
		run.name = fmt.Sprintf("c%d-%dx%d", run.seed, opts.Iterations, len(servers))
	}
	fp := campaignFingerprint(opts, run.seed, servers)
	progress := s.DB.Collection(ColProgress)

	if opts.Campaign.Resume {
		meta := progress.Get(CampaignMetaID(run.name))
		if meta == nil {
			return nil, fmt.Errorf("measure: campaign %q has no checkpoint to resume", run.name)
		}
		if stored, _ := meta[FConfig].(string); stored != fp {
			return nil, fmt.Errorf("measure: campaign %q config changed since checkpoint (was %q, now %q)",
				run.name, meta[FConfig], fp)
		}
		baseMs, ok := asInt(meta[FBaseMs])
		if !ok {
			return nil, fmt.Errorf("measure: campaign %q checkpoint has no %s", run.name, FBaseMs)
		}
		run.base = time.Duration(baseMs) * time.Millisecond
		return run, nil
	}

	// Fresh campaign: drop any stale progress under this name, then anchor
	// the time base past every stored measurement so stats identifiers
	// (path id + timestamp) cannot collide with existing data.
	progress.Delete(docdb.Eq(FCampaign, run.name))
	if newest, ok := newestStatsTime(s.DB.Collection(ColStats)); ok {
		run.base = newest + time.Millisecond
	}
	meta := docdb.Document{
		"_id":     CampaignMetaID(run.name),
		FCampaign: run.name,
		FSeed:     run.seed,
		FBaseMs:   run.base.Milliseconds(),
		FStrideMs: run.stride.Milliseconds(),
		FConfig:   fp,
	}
	if _, err := progress.UpsertMany([]docdb.Document{meta}); err != nil {
		return nil, fmt.Errorf("measure: campaign %q: writing checkpoint meta: %w", run.name, err)
	}
	if err := s.DB.Flush(); err != nil {
		return nil, err
	}
	return run, nil
}

// campaignFingerprint captures every parameter that shapes a campaign's
// results, so a resume with a drifted configuration is rejected instead of
// producing a database that no single configuration explains.
func campaignFingerprint(opts RunOpts, seed int64, servers []Server) string {
	ids := make([]int, len(servers))
	for i, s := range servers {
		ids[i] = s.ID
	}
	return fmt.Sprintf("seed=%d iters=%d servers=%v ping=%d@%s bw=%s@%g skipbw=%t stride=%s attempts=%d",
		seed, opts.Iterations, ids, opts.PingCount, opts.PingInterval,
		opts.BwDuration, opts.BwTargetBps, opts.SkipBandwidth,
		opts.Campaign.IterationStride, opts.Campaign.Retry.MaxAttempts)
}

// runCell measures one cell with retries and stores its outcome.
func (r *campaignRun) runCell(ctx context.Context, c gridCell) {
	res, err := r.measureCell(ctx, c)
	if err != nil {
		// Only cancellation aborts a cell without a checkpoint; it will be
		// re-measured (deterministically) on resume.
		return
	}
	if err := r.storeCell(c, res); err != nil {
		r.recordFatal(err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.PathsTested += res.counts.tested
	r.rep.Failures += res.counts.failures
	r.rep.UnresolvedPaths += res.counts.unresolved
	r.rep.StatsStored += len(res.docs)
	r.rep.SimulatedTime += res.simd
}

// measureCell runs the retry loop of one cell. Each attempt forks a fresh
// private world seeded by (campaign seed, server, iteration, attempt) and
// advances it to the cell's simulated start time, so the outcome depends
// only on those coordinates — never on which worker ran it or when.
//
//lint:deterministic cell outcomes depend only on (seed, server, iteration, attempt)
func (r *campaignRun) measureCell(ctx context.Context, c gridCell) (cellResult, error) {
	pol := r.opts.Campaign.Retry
	// Jitter randomness is wall-clock-only (it shapes retry pacing, not
	// measurements), but seeding it from the cell keeps runs reproducible.
	jrng := rand.New(rand.NewSource(cellSeed(r.seed, c.srv.ID, c.iteration, pol.MaxAttempts)))
	start := r.base + time.Duration(c.iteration)*r.stride
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, pol, attempt, jrng); err != nil {
				return cellResult{}, err
			}
		}
		if err := ctx.Err(); err != nil {
			return cellResult{}, err
		}
		net := r.suite.Daemon.Network().Fork(cellSeed(r.seed, c.srv.ID, c.iteration, attempt))
		net.Advance(start)
		daemon := r.suite.Daemon.Fork(net)
		docs, counts, err := measureDestination(daemon, r.suite.DB, c.srv, r.opts)
		if err != nil {
			continue
		}
		return cellResult{docs: docs, counts: counts, simd: net.Now() - start, attempts: attempt + 1}, nil
	}
	// Retries exhausted: the cell becomes one recorded failure (server
	// failure tolerance, §4.1.2) and is checkpointed so a resume does not
	// re-fight a deterministic failure.
	return cellResult{counts: cellCounts{failures: 1}, attempts: pol.MaxAttempts}, nil
}

// storeCell persists a cell: sign, upsert the stats batch, checkpoint, and
// flush. The checkpoint is journaled after the stats it describes, so a
// crash can lose a checkpoint (the cell is deterministically re-measured
// and idempotently re-upserted on resume) but never stats it claims exist.
func (r *campaignRun) storeCell(c gridCell, res cellResult) error {
	if err := r.suite.signAll(res.docs); err != nil {
		return err
	}
	if len(res.docs) > 0 {
		if _, err := r.suite.DB.Collection(ColStats).UpsertMany(res.docs); err != nil {
			return fmt.Errorf("measure: storing stats for server %d iteration %d: %w", c.srv.ID, c.iteration, err)
		}
	}
	ckpt := docdb.Document{
		"_id":       CellID(r.name, c.iteration, c.srv.ID),
		FCampaign:   r.name,
		FIteration:  c.iteration,
		FServerID:   c.srv.ID,
		FAttempts:   res.attempts,
		FCellTested: res.counts.tested,
		FCellStored: len(res.docs),
		FCellFail:   res.counts.failures,
		FCellUnres:  res.counts.unresolved,
		FCellSimMs:  res.simd.Milliseconds(),
	}
	if _, err := r.suite.DB.Collection(ColProgress).UpsertMany([]docdb.Document{ckpt}); err != nil {
		return fmt.Errorf("measure: checkpointing cell %d/%d: %w", c.iteration, c.srv.ID, err)
	}
	return r.suite.DB.Flush()
}

// foldCheckpoint merges a previously completed cell's recorded counts into
// the report, so a resumed campaign reports the same totals an
// uninterrupted one would.
func (r *campaignRun) foldCheckpoint(doc docdb.Document) {
	tested, _ := asInt(doc[FCellTested])
	stored, _ := asInt(doc[FCellStored])
	failures, _ := asInt(doc[FCellFail])
	unresolved, _ := asInt(doc[FCellUnres])
	simMs, _ := asInt(doc[FCellSimMs])
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.SkippedCells++
	r.rep.PathsTested += tested
	r.rep.StatsStored += stored
	r.rep.Failures += failures
	r.rep.UnresolvedPaths += unresolved
	r.rep.SimulatedTime += time.Duration(simMs) * time.Millisecond
}

func (r *campaignRun) recordFatal(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *campaignRun) failedFatally() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErr != nil
}

// cellSeed derives a per-(cell, attempt) world seed from the campaign seed
// by FNV-64a, the whole basis of schedule-independence.
func cellSeed(campaignSeed int64, serverID, iteration, attempt int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range [...]uint64{uint64(campaignSeed), uint64(serverID), uint64(iteration), uint64(attempt)} {
		binary.BigEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	return int64(h.Sum64())
}

// backoffDelay computes the jittered exponential delay before retry
// `attempt` (1-based). BaseBackoff << (attempt-1) wraps int64 long before
// the shift count reaches 64 and can wrap to a small positive value that a
// d <= 0 check never catches, so the doubling is only applied while it
// provably fits; any attempt past that point saturates at MaxBackoff. The
// jitter draw happens exactly once regardless, keeping the jrng stream
// aligned across attempts.
func backoffDelay(pol RetryPolicy, attempt int, jrng *rand.Rand) time.Duration {
	d := pol.MaxBackoff
	if shift := uint(attempt - 1); shift < 63 && pol.BaseBackoff > 0 && pol.BaseBackoff <= math.MaxInt64>>shift {
		if b := pol.BaseBackoff << shift; b < d {
			d = b
		}
	}
	d = time.Duration(float64(d) * (1 + pol.JitterFrac*(2*jrng.Float64()-1)))
	if d > pol.MaxBackoff {
		d = pol.MaxBackoff
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleepBackoff waits out the exponential backoff before retry `attempt`
// (1-based), jittered by the policy's JitterFrac, honoring cancellation.
func sleepBackoff(ctx context.Context, pol RetryPolicy, attempt int, jrng *rand.Rand) error {
	d := backoffDelay(pol, attempt, jrng)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
