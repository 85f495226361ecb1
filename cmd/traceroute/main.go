// Command traceroute mirrors `scion traceroute`: SCMP traceroute probes to
// every hop of a path, "particularly useful to test how the latency is
// affected by each link" (§3.3).
//
// Usage:
//
//	traceroute 16-ffaa:0:1002
//	traceroute 16-ffaa:0:1002 --sequence '...'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("traceroute", flag.ContinueOnError)
	var (
		sequence    = fs.String("sequence", "", "hop-predicate sequence pinning the path")
		probes      = fs.Int("probes", 3, "probes per hop")
		interactive = fs.Bool("interactive", false, "list paths and select with --path")
		pathIdx     = fs.Int("path", 0, "path index for --interactive")
		seed        = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "traceroute: exactly one destination required")
		return 2
	}
	w, err := cliutil.NewWorld(*seed, "")
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "traceroute", "%v", err)
	}
	ia, _, err := w.ResolveDestination(fs.Arg(0))
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "traceroute", "%v", err)
	}
	var path *pathmgr.Path
	if *sequence != "" {
		seq, err := pathmgr.ParseSequence(*sequence)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "traceroute", "%v", err)
		}
		path, err = w.Daemon.ResolveSequence(ia, seq)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "traceroute", "%v", err)
		}
	} else if *interactive {
		paths, err := w.Daemon.ShowPaths(ia, sciond.ShowPathsOpts{MaxPaths: 40, Probe: true})
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "traceroute", "%v", err)
		}
		fmt.Print(sciond.FormatPaths(paths, true))
		if *pathIdx < 0 || *pathIdx >= len(paths) {
			return cliutil.Fatalf(os.Stderr, "traceroute", "path index %d out of range [0,%d)", *pathIdx, len(paths))
		}
		path = paths[*pathIdx]
		fmt.Printf("Using path %d: %s\n", *pathIdx, path)
	} else {
		paths, err := w.Daemon.ShowPaths(ia, sciond.ShowPathsOpts{MaxPaths: 1})
		if err != nil || len(paths) == 0 {
			return cliutil.Fatalf(os.Stderr, "traceroute", "no path to %s: %v", ia, err)
		}
		path = paths[0]
	}

	hops, err := scmp.Traceroute(w.Net, path, *probes)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "traceroute", "%v", err)
	}
	fmt.Printf("traceroute to %s, %d hops\n", ia, len(hops))
	for _, h := range hops {
		fmt.Printf("%2d %-28s", h.Index+1, h.Hop.String())
		if h.Timeout {
			fmt.Print(" *")
		}
		for _, rtt := range h.RTTs {
			fmt.Printf(" %v", rtt.Round(10*time.Microsecond))
		}
		fmt.Println()
	}
	return 0
}
