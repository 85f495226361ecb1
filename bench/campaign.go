package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
)

// phase is one campaign (cold or repeat) of the campaign workload.
type phase struct {
	wall time.Duration
	rep  measure.RunReport
	// stored is, per statistics document, the delay from the campaign's
	// start to the moment the document was handed to storage — when a
	// measurement becomes something the front-end can answer with.
	stored latencies
}

func (p *phase) pathsPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.rep.PathsTested) / p.wall.Seconds()
}

// runPhase runs one campaign on the environment with nproc workers.
// Document arrival is observed through measure.Suite's SignStats hook —
// the one public callback on the write path — which stamps, not signs.
func runPhase(ctx context.Context, e *env, name string) (*phase, error) {
	p := &phase{}
	stats := e.db.Collection(measure.ColStats)
	before := stats.Count()
	var mu sync.Mutex
	start := time.Now()
	suite := &measure.Suite{DB: e.db, Daemon: e.daemon, SignStats: func(docdb.Document) error {
		d := time.Since(start)
		mu.Lock()
		p.stored.ok(d, d)
		mu.Unlock()
		return nil
	}}
	rep, err := suite.Run(ctx, campaignOpts(e, clients(), name))
	p.wall = time.Since(start)
	p.rep = rep
	if err != nil {
		return p, fmt.Errorf("campaign %s: %w", name, err)
	}
	if grew := stats.Count() - before; grew != rep.StatsStored || len(p.stored.us) != rep.StatsStored {
		return p, fmt.Errorf("campaign %s: report says %d stats stored, collection grew by %d, hook saw %d",
			name, rep.StatsStored, grew, len(p.stored.us))
	}
	if rep.PathsTested == 0 {
		return p, fmt.Errorf("campaign %s tested no paths: %+v", name, rep)
	}
	return p, nil
}

// campaignWindow is the campaign workload's timed window: one cold
// campaign on an empty database, then the identical campaign again under
// a new name on the now-populated one — the operational steady state,
// the paper's suite re-runs periodically. It checks that both return the
// same counts.
func campaignWindow(ctx context.Context, e *env) (cold, repeat *phase, err error) {
	if cold, err = runPhase(ctx, e, "cold"); err != nil {
		return nil, nil, err
	}
	if repeat, err = runPhase(ctx, e, "repeat"); err != nil {
		return nil, nil, err
	}
	c, r := cold.rep, repeat.rep
	// SimulatedTime is left out: the repeat is anchored after the cold
	// campaign's newest measurement, which moves its forks' clocks.
	c.SimulatedTime, r.SimulatedTime = 0, 0
	if c != r {
		return nil, nil, fmt.Errorf("cold and repeat campaigns disagree: %+v vs %+v", c, r)
	}
	return cold, repeat, nil
}
