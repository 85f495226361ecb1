package chaos

import (
	"context"
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// The fixed campaign shape every chaotic run measures. Small enough that a
// multi-seed sweep stays in tier-1 time, large enough that the cell grid
// (iterations x destinations) gives crashes and resumes real work.
const (
	scenarioIterations = 2
	scenarioWorkers    = 2
	scenarioServers    = 2
	scenarioStride     = time.Minute
)

// Result is one executed chaotic run plus its oracle, ready for Verify.
type Result struct {
	Seed     int64
	Plan     Plan
	Campaign string
	// Rounds is how many process lifetimes the chaotic campaign needed
	// (1 = no fault interrupted it).
	Rounds int
	// Report is the final (completing) round's report; resumed rounds fold
	// checkpointed cells, so it describes the whole campaign.
	Report measure.RunReport
	// OracleReport is the uninterrupted fault-free-storage run's report.
	OracleReport measure.RunReport
	// ServerIDs are the scenario's destination ids.
	ServerIDs []int

	Topo *topology.Topology
	// Final is the persistent database the chaotic campaign ended with;
	// Oracle is the in-memory database of the uninterrupted run.
	Final  *docdb.DB
	Oracle *docdb.DB
}

// Close releases the persistent database.
func (r *Result) Close() error { return r.Final.Close() }

// Run executes the chaotic experiment for one seed: an oracle campaign on
// an in-memory database with the plan's network and lookup faults but
// perfect storage, then the same campaign on a persistent database at
// dbPath under the full plan — write faults, crashes at plan-chosen
// checkpoints, log tail truncation — resumed round after round until it
// completes. The caller owns dbPath (a fresh path in an existing
// directory) and must Close the Result. Cancelling ctx aborts the run
// between (and inside) rounds — the campaign engine checks it per cell.
func Run(ctx context.Context, seed int64, dbPath string) (*Result, error) {
	topo := topology.DefaultWorld()
	res := &Result{
		Seed:     seed,
		Plan:     NewPlan(seed, topo),
		Campaign: fmt.Sprintf("chaos-%d", seed),
		Topo:     topo,
	}

	// Oracle: same weather, same control-plane faults, flawless storage,
	// never interrupted. Its database is what the chaotic run must converge
	// to — that convergence is the schedule-independence promise of the
	// campaign engine under composed faults.
	res.Oracle = docdb.MustOpen()
	rep, ids, err := res.runRound(ctx, res.Oracle, false)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: oracle run: %w", seed, err)
	}
	res.OracleReport, res.ServerIDs = rep, ids

	inj := newInjector(res.Plan)
	// Every round retires at least one fault (a crash or a write fault) or
	// completes; one spare round absorbs the crash-trigger-never-fired case.
	maxRounds := len(res.Plan.Crashes) + len(res.Plan.Writes) + 2
	for round := 0; round < maxRounds; round++ {
		db, err := docdb.Open(docdb.WithPath(dbPath))
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d round %d: reopen: %w", seed, round, err)
		}
		db.SetFailpoint(inj)
		// Invariant 2 holds at every recovery point, not just at the end:
		// whatever the crash and truncation did, no surviving checkpoint
		// may claim statistics the journal lost.
		if err := checkCheckpointOrdering(db, res.Campaign); err != nil {
			return nil, fmt.Errorf("chaos: seed %d round %d: %w", seed, round, err)
		}
		resume := db.Collection(measure.ColProgress).Get(measure.CampaignMetaID(res.Campaign)) != nil

		roundCtx, cancel := context.WithCancel(ctx)
		crash := Crash{}
		if round < len(res.Plan.Crashes) {
			crash = res.Plan.Crashes[round]
		}
		inj.armCrash(crash.AfterCheckpoints, cancel)

		// The engine watches the database across the round so a completed
		// round checks the incremental snapshot fold against a from-scratch
		// rebuild (invariant 3's moving part).
		engine := selection.New(db, topo)
		warmSnapshot(ctx, engine, res.ServerIDs)

		rep, _, err := res.runRound(roundCtx, db, resume)
		cancel()
		if err == nil {
			if serr := checkSnapshot(ctx, db, topo, engine, res.ServerIDs); serr != nil {
				return nil, fmt.Errorf("chaos: seed %d round %d: %w", seed, round, serr)
			}
			res.Report = rep
			res.Rounds = round + 1
			res.Final = db
			return res, nil
		}
		// Crash semantics: abandon the database without Close (a real crash
		// flushes nothing), then lose the unsynced log suffix.
		if err := truncateTail(dbPath, res.Campaign); err != nil {
			return nil, fmt.Errorf("chaos: seed %d round %d: %w", seed, round, err)
		}
		// A plan-armed crash cancels roundCtx on purpose; a cancelled parent
		// ctx means the caller wants out.
		if ctx.Err() != nil {
			return nil, fmt.Errorf("chaos: seed %d: %w", seed, ctx.Err())
		}
	}
	return nil, fmt.Errorf("chaos: seed %d: campaign did not complete within %d rounds", seed, maxRounds)
}

// runRound executes one campaign attempt against db. The world is rebuilt
// from scratch each round — fresh simulator seeded by the plan, schedule
// applied, fresh daemon with the plan's lookup hook — exactly what a
// restarted test-suite process would do.
func (res *Result) runRound(ctx context.Context, db *docdb.DB, resume bool) (measure.RunReport, []int, error) {
	net := simnet.New(res.Topo, simnet.Options{Seed: res.Seed})
	if err := net.ApplySchedule(res.Plan.Network); err != nil {
		return measure.RunReport{}, nil, err
	}
	daemon, err := sciond.New(res.Topo, net, topology.MyAS)
	if err != nil {
		return measure.RunReport{}, nil, err
	}
	daemon.SetFaultHook(res.Plan.LookupHook())

	// Resolve the destination subset before Run needs it; SeedServers is
	// idempotent, so Run's own call becomes a no-op.
	if err := measure.SeedServers(db, res.Topo); err != nil {
		return measure.RunReport{}, nil, err
	}
	servers, err := measure.Servers(db)
	if err != nil {
		return measure.RunReport{}, nil, err
	}
	if len(servers) < scenarioServers {
		return measure.RunReport{}, nil, fmt.Errorf("topology has %d servers, scenario needs %d", len(servers), scenarioServers)
	}
	ids := make([]int, scenarioServers)
	for i := range ids {
		ids[i] = servers[i].ID
	}

	suite := &measure.Suite{DB: db, Daemon: daemon}
	rep, err := suite.Run(ctx, measure.RunOpts{
		Iterations:    scenarioIterations,
		ServerIDs:     ids,
		PingCount:     2,
		PingInterval:  time.Millisecond,
		SkipBandwidth: true,
		Campaign: measure.Campaign{
			Workers: scenarioWorkers,
			Name:    res.Campaign,
			Seed:    res.Seed,
			Resume:  resume,
			Retry: measure.RetryPolicy{
				MaxAttempts: 3,
				BaseBackoff: time.Microsecond,
				MaxBackoff:  10 * time.Microsecond,
				JitterFrac:  0.5,
			},
			IterationStride: scenarioStride,
		},
	})
	return rep, ids, err
}

// warmSnapshot primes the engine's snapshot before the round so a
// completing round's final Select exercises the incremental fold path.
// Errors are expected here (a fresh database has no candidates yet).
func warmSnapshot(ctx context.Context, engine *selection.Engine, ids []int) {
	for _, id := range ids {
		_, _ = engine.Select(ctx, id, selection.Request{})
	}
}
