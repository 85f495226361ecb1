// Command scionping mirrors `scion ping`: SCMP echo over a chosen path,
// with the --count, --interval and --sequence flags the paper's test-suite
// drives (§5.3), plus an --interactive mode that lists the available paths
// and lets the user pick one — the user-driven path control primitive.
//
// Usage:
//
//	scionping 16-ffaa:0:1002 -c 30 --interval 100ms
//	scionping 16-ffaa:0:1002 --interactive --path 3
//	scionping 16-ffaa:0:1002 --sequence '17-ffaa:1:1#1 ...'
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
	fs := flag.NewFlagSet("scionping", flag.ContinueOnError)
	var (
		count       = fs.Int("c", 30, "number of SCMP echo packets (--count)")
		interval    = fs.Duration("interval", 100*time.Millisecond, "inter-packet interval")
		sequence    = fs.String("sequence", "", "hop-predicate sequence pinning the path")
		interactive = fs.Bool("interactive", false, "list paths and select with --path")
		pathIdx     = fs.Int("path", 0, "path index for --interactive")
		seed        = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "scionping: exactly one destination required")
		return 2
	}
	w, err := cliutil.NewWorld(*seed, "")
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "scionping", "%v", err)
	}
	ia, _, err := w.ResolveDestination(fs.Arg(0))
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "scionping", "%v", err)
	}

	var path *pathmgr.Path
	switch {
	case *sequence != "":
		seq, err := pathmgr.ParseSequence(*sequence)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "scionping", "%v", err)
		}
		path, err = w.Daemon.ResolveSequence(ia, seq)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "scionping", "%v", err)
		}
	case *interactive:
		paths, err := w.Daemon.ShowPaths(ia, sciond.ShowPathsOpts{MaxPaths: 40, Probe: true})
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "scionping", "%v", err)
		}
		fmt.Print(sciond.FormatPaths(paths, true))
		if *pathIdx < 0 || *pathIdx >= len(paths) {
			return cliutil.Fatalf(os.Stderr, "scionping", "path index %d out of range [0,%d)", *pathIdx, len(paths))
		}
		path = paths[*pathIdx]
		fmt.Printf("Using path %d: %s\n", *pathIdx, path)
	default:
		paths, err := w.Daemon.ShowPaths(ia, sciond.ShowPathsOpts{MaxPaths: 1})
		if err != nil || len(paths) == 0 {
			return cliutil.Fatalf(os.Stderr, "scionping", "no path to %s: %v", ia, err)
		}
		path = paths[0]
	}

	stats, err := scmp.Ping(w.Net, path, scmp.PingOpts{Count: *count, Interval: *interval})
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "scionping", "%v", err)
	}
	fmt.Printf("PING %s via %s\n", ia, path.Sequence())
	fmt.Println(stats)
	return 0
}
