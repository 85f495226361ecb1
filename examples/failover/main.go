// Failover: the UPIN control loop in action. A user intent is installed on
// the best path to AWS Ireland; mid-session a link on that path dies. The
// watchdog's health checks see 100 % loss, re-measure, and move the intent
// onto a healthy alternative — user-driven path control as an ongoing
// process rather than a one-shot choice.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 21})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		return err
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		return err
	}
	suite := &measure.Suite{DB: db, Daemon: daemon}

	servers, _ := measure.Servers(db)
	var irelandID int
	for _, s := range servers {
		if s.Address.IA == topology.AWSIreland {
			irelandID = s.ID
		}
	}
	fmt.Fprintln(out, "measuring paths to AWS Ireland...")
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 3, ServerIDs: []int{irelandID},
		PingCount: 8, PingInterval: 10 * time.Millisecond, SkipBandwidth: true,
	}); err != nil {
		return err
	}

	engine := selection.New(db, topo)
	explorer := upin.NewDomainExplorer(topo, []addr.ISD{16, 17, 19})
	w := &upin.Watchdog{
		Controller: upin.NewController(daemon, engine, explorer),
		Tracer:     upin.NewTracer(net),
		Suite:      suite,
		CheckPing:  scmp.PingOpts{Count: 10, Interval: 20 * time.Millisecond},
		MaxLossPct: 20,
	}
	intent := upin.Intent{ServerID: irelandID, Request: selection.Request{
		Objective: selection.LowestLatency,
	}}

	// Peek at the initial decision so the outage can target it.
	dec, err := w.Controller.Decide(context.Background(), topology.AWSIreland, intent)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\ninstalled: %s\n", selection.Explain(dec.Candidate))

	// Disaster strikes 5 simulated seconds in: the path's second link dies.
	if err := net.ScheduleLinkOutage(simnet.LinkOutage{
		A: dec.Path.Hops[1].IA, B: dec.Path.Hops[2].IA,
		Start: net.Now() + 5*time.Second, End: net.Now() + 24*time.Hour,
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "scheduled outage on %s--%s in 5s of simulated time\n\n",
		dec.Path.Hops[1].IA, dec.Path.Hops[2].IA)

	events, final, err := w.Watch(context.Background(), topology.AWSIreland, intent, 5, 3*time.Second)
	if err != nil {
		return err
	}
	for _, ev := range events {
		status := "healthy"
		if ev.LossPct > 0 {
			status = fmt.Sprintf("loss %.0f%%", ev.LossPct)
		}
		if ev.Reason != "" {
			status += " — " + ev.Reason
		}
		fmt.Fprintf(out, "round %d on %-5s: %s\n", ev.Round, ev.PathID, status)
	}
	fmt.Fprintf(out, "\nfinal path: %s\n", selection.Explain(final.Candidate))
	return nil
}
