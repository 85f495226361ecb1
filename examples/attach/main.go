// Attaching your own AS: the §3.2 workflow. A second experimenter defines
// an AS, attaches it to the Magdeburg attachment point (any AP works), and
// immediately has paths from MY_AS measured to it via the standard
// pipeline — then the topology is exported to JSON and reloaded, the way
// SCIONLab hands out generated configuration.
//
// Run with:
//
//	go run ./examples/attach
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
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

	fmt.Fprintln(out, "available attachment points:")
	for _, ap := range topo.AttachmentPoints() {
		fmt.Fprintf(out, "  %-16s %-16s %s, %s\n", ap.IA, ap.Name, ap.Site.Name, ap.Site.Country)
	}

	// Define and attach the new AS (the web-interface step of §3.2).
	peer := addr.MustParseIA("19-ffaa:1:42")
	link, err := topo.AttachUserAS(topology.UserASSpec{
		IA:   peer,
		Name: "PEER_AS",
		AP:   topology.MagdeburgAP,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nattached %s behind %s (access %.0f Mbps down / %.0f Mbps up)\n",
		peer, topology.MagdeburgAP, link.CapacityAtoB/1e6, link.CapacityBtoA/1e6)

	// The generated configuration: export and reload the topology.
	var buf bytes.Buffer
	if err := topo.WriteJSON(&buf); err != nil {
		return err
	}
	reloaded, err := topology.ReadJSON(&buf)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "topology exported to JSON (%d bytes) and reloaded: %d ASes\n",
		buf.Len(), len(reloaded.ASes()))

	// Paths to the new AS appear without any further setup: beaconing
	// discovers it behind the AP.
	net := simnet.New(reloaded, simnet.Options{Seed: 4})
	daemon, err := sciond.New(reloaded, net, topology.MyAS)
	if err != nil {
		return err
	}
	paths, err := daemon.ShowPaths(peer, sciond.ShowPathsOpts{MaxPaths: 10, Extended: true, Probe: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\npaths from MY_AS to the new AS:\n%s\n", sciond.FormatPaths(paths, true))

	stats, err := scmp.Ping(net, paths[0], scmp.PingOpts{Count: 10, Interval: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ping over the best path: %s\n", stats)
	return nil
}
