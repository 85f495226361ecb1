// Bandwidth exploration: the paper's §6.2 experiment in miniature. The
// program runs the bwtester against the Magdeburg AP in Germany at a
// 12 Mbps and a 150 Mbps target, with 64-byte and MTU-sized packets in
// both directions, and prints the trend the paper found: at 12 Mbps the
// MTU flows win (header overhead penalises small packets), at 150 Mbps the
// trend reverses (the overloaded bottleneck drops MTU traffic
// disproportionately).
//
// Run with:
//
//	go run ./examples/bandwidth
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/upin/scionpath/internal/bwtest"
	"github.com/upin/scionpath/internal/sciond"
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
	net := simnet.New(topo, simnet.Options{Seed: 3})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		return err
	}
	paths, err := daemon.ShowPaths(topology.MagdeburgAP, sciond.ShowPathsOpts{MaxPaths: 1})
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no path to Magdeburg: %v", err)
	}
	path := paths[0]
	fmt.Fprintf(out, "testing path: %s (MTU %d)\n\n", path.Sequence(), path.MTU)

	fmt.Fprintf(out, "%-10s %-6s %12s %12s\n", "target", "size", "up (Mbps)", "down (Mbps)")
	for _, target := range []string{"12Mbps", "150Mbps"} {
		for _, size := range []string{"64", "MTU"} {
			spec := fmt.Sprintf("3,%s,?,%s", size, target)
			params, err := bwtest.ParseParams(spec, path.MTU)
			if err != nil {
				return err
			}
			// Average a few runs to smooth cross-traffic noise.
			var up, down float64
			const k = 5
			for i := 0; i < k; i++ {
				res, err := bwtest.Run(net, path, params, bwtest.Params{})
				if err != nil {
					return err
				}
				up += res.CS.AchievedBps
				down += res.SC.AchievedBps
			}
			fmt.Fprintf(out, "%-10s %-6s %12.2f %12.2f\n", target, size, up/k/1e6, down/k/1e6)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "expected shape (paper Fig 7/8): at 12Mbps MTU > 64B; at 150Mbps 64B > MTU;")
	fmt.Fprintln(out, "upstream below downstream throughout (asymmetric access links).")
	return nil
}
