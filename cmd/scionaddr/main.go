// Command scionaddr mirrors `scion address`: it prints the relevant SCION
// address information for the local host — "our AS where we launch commands
// from" (§3.3) — plus a summary of its attachment.
//
// Usage:
//
//	scionaddr
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/topology"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("scionaddr", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := cliutil.NewWorld(*seed, "")
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "scionaddr", "%v", err)
	}
	local := w.Daemon.LocalIA()
	as := w.Topo.AS(local)
	fmt.Println(w.Daemon.Address())
	fmt.Printf("ISD: %d  AS: %s  (%s, %s)\n", local.ISD, local.AS, as.Name, as.Site.Country)
	if l := w.Topo.LinkBetween(topology.ETHZAP, local); l != nil {
		fmt.Printf("attachment point: %s (%s), access %s down / %s up\n",
			topology.ETHZAP, w.Topo.AS(topology.ETHZAP).Name,
			mbps(l.CapacityAtoB), mbps(l.CapacityBtoA))
	}
	return 0
}

func mbps(bps float64) string { return fmt.Sprintf("%.0f Mbps", bps/1e6) }
