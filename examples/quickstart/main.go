// Quickstart: the full pipeline of the paper in one program — build the
// SCIONLab-like world, attach MY_AS, collect paths to every destination,
// run a short measurement campaign against AWS Ireland, and ask the
// selection engine for the best low-latency path.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// 1. The world: 35 SCIONLab ASes plus our own AS behind ETHZ-AP.
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 42})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "local address: %s\n", daemon.Address())
	fmt.Fprintf(out, "world: %d ASes in ISDs %v, %d testable servers\n\n",
		len(topo.ASes()), topo.ISDs(), len(topo.Servers()))

	// 2. The database and the availableServers catalogue.
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		return err
	}

	// 3. Paths collection: showpaths --extended -m 40 to each server,
	//    keeping paths with hops <= min+1.
	suite := &measure.Suite{DB: db, Daemon: daemon}
	colRep, err := measure.CollectPaths(context.Background(), db, daemon, measure.CollectOpts{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "collected %d paths (of %d discovered) across %d destinations\n",
		colRep.PathsRetained, colRep.PathsDiscovered, colRep.ServersQueried)

	// 4. Measure the Ireland destination: ping + bwtest per path.
	servers, err := measure.Servers(db)
	if err != nil {
		return err
	}
	irelandID := 0
	for _, s := range servers {
		if s.Address.IA == topology.AWSIreland {
			irelandID = s.ID
		}
	}
	runRep, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations:   3,
		Skip:         true, // paths already collected above
		ServerIDs:    []int{irelandID},
		PingCount:    10,
		PingInterval: 20 * time.Millisecond,
		BwDuration:   time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measured %d paths, stored %d stats documents (simulated time %v)\n\n",
		runRep.PathsTested, runRep.StatsStored, net.Now().Round(time.Second))

	// 5. User-driven path control: ask for the best low-latency path.
	engine := selection.New(db, topo)
	best, err := engine.Best(context.Background(), irelandID, selection.Request{Objective: selection.LowestLatency})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "best low-latency path to AWS Ireland:")
	fmt.Fprintln(out, " ", selection.Explain(best))
	fmt.Fprintln(out, "  sequence:", best.Sequence)
	return nil
}
