// Sovereignty-driven selection: the paper's motivating UPIN use case —
// users excluding "devices ... for geographical or sovereignty reasons"
// (abstract) and "operators that run them" (§1).
//
// A user in Zurich wants to reach the AWS Ireland server but insists their
// traffic never crosses hardware in the United States, then tightens the
// request to specific ISDs and operators, watching how the candidate set
// shrinks.
//
// Run with:
//
//	go run ./examples/sovereignty
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
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: 11})
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
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations:    4,
		ServerIDs:     []int{irelandID},
		PingCount:     12,
		PingInterval:  10 * time.Millisecond,
		SkipBandwidth: true,
	}); err != nil {
		return err
	}

	engine := selection.New(db, topo)
	for _, q := range []struct {
		title string
		req   selection.Request
	}{
		{"no constraints", selection.Request{}},
		{"exclude country: United States", selection.Request{
			ExcludeCountries: []string{"United States"},
		}},
		{"exclude country: United States + Singapore", selection.Request{
			ExcludeCountries: []string{"United States", "Singapore"},
		}},
		{"exclude ISD 19 (stay out of the EU research plane)", selection.Request{
			ExcludeISDs: []string{"19"},
		}},
		{"exclude operator: GEANT", selection.Request{
			ExcludeOperators: []string{"GEANT"},
		}},
	} {
		cands, err := engine.Select(context.Background(), irelandID, q.req)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s -> %d candidate paths\n", q.title, len(cands))
		for i, c := range cands {
			if i == 2 {
				fmt.Fprintln(out, "    ...")
				break
			}
			fmt.Fprintf(out, "    %d. %s\n", i+1, selection.Explain(c))
		}
		fmt.Fprintln(out)
	}

	// An impossible request: the destination itself is in Ireland.
	_, err = engine.Best(context.Background(), irelandID, selection.Request{
		ExcludeCountries: []string{"Ireland"},
	})
	fmt.Fprintf(out, "exclude country: Ireland -> %v (the destination lives there)\n", err)
	return nil
}
