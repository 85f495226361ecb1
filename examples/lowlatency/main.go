// Low-latency / low-jitter selection for a real-time application: the
// paper's §6.1 use case — "exclude routes passing through these ASes
// [16-ffaa:0:1004, 16-ffaa:0:1007] for streaming audio and video services,
// as well as, for example, VoIP calls, in which latency consistency is more
// important than low latency values".
//
// The program measures every path to AWS Ireland, then compares three user
// requests: plain lowest latency, most stable (VoIP), and a hard latency
// budget for interactive gaming.
//
// Run with:
//
//	go run ./examples/lowlatency
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
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
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 7})
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

	fmt.Fprintln(out, "measuring all paths to AWS Ireland (5 iterations, latency only)...")
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations:    5,
		ServerIDs:     []int{irelandID},
		PingCount:     20,
		PingInterval:  10 * time.Millisecond,
		SkipBandwidth: true,
	}); err != nil {
		return err
	}

	engine := selection.New(db, topo)

	fmt.Fprintln(out, "\n1) video call — most stable path (latency consistency first):")
	stable, err := engine.Best(context.Background(), irelandID, selection.Request{Objective: selection.MostStable})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "  ", selection.Explain(stable))

	fmt.Fprintln(out, "\n2) online gaming — hard 50 ms budget, lowest latency wins:")
	gaming, err := engine.Best(context.Background(), irelandID, selection.Request{
		Objective:    selection.LowestLatency,
		MaxLatencyMs: 50,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "  ", selection.Explain(gaming))

	fmt.Fprintln(out, "\n3) the same request with the jittery long-distance ASes excluded explicitly:")
	expl, err := engine.Select(context.Background(), irelandID, selection.Request{
		Objective:   selection.LowestLatency,
		ExcludeASes: []string{"16-ffaa:0:1004", "16-ffaa:0:1007"},
	})
	if err != nil {
		return err
	}
	for i, c := range expl {
		if i == 3 {
			break
		}
		fmt.Fprintf(out, "   %d. %s\n", i+1, selection.Explain(c))
	}

	fmt.Fprintln(out, "\nfull ranking by jitter (mdev), showing why 1004/1007 paths lose:")
	byJitter, _ := engine.Select(context.Background(), irelandID, selection.Request{Objective: selection.MostStable})
	for _, c := range byJitter {
		fmt.Fprintf(out, "   %-6s jitter %6.2f ms  latency %7.1f ms  ISDs {%s}\n",
			c.PathID, c.JitterMs, c.AvgLatencyMs, strings.Join(c.ISDs, ","))
	}
	return nil
}
