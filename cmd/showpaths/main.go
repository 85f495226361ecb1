// Command showpaths mirrors `scion showpaths`: it lists the available
// paths from MY_AS to a destination, ranked by hop count, optionally with
// the --extended metadata block (MTU, status, expected latency) the
// paper's collector parses (§3.3).
//
// Usage:
//
//	showpaths -d 16-ffaa:0:1002 --extended -m 40
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("showpaths", flag.ContinueOnError)
	var (
		dest     = fs.String("d", "", "destination: ISD-AS, host address or server id (required)")
		maxPaths = fs.Int("m", sciond.DefaultMaxPaths, "maximum number of paths to display")
		extended = fs.Bool("extended", false, "show extended path metadata")
		probe    = fs.Bool("probe", true, "probe path liveness")
		aclStr   = fs.String("acl", "", "path policy, e.g. '- 16-ffaa:0:1004#0'")
		seed     = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dest == "" {
		fs.Usage()
		return 2
	}
	w, err := cliutil.NewWorld(*seed, "")
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "showpaths", "%v", err)
	}
	ia, _, err := w.ResolveDestination(*dest)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "showpaths", "%v", err)
	}
	var acl *pathmgr.ACL
	if *aclStr != "" {
		acl, err = pathmgr.ParseACL(*aclStr)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "showpaths", "%v", err)
		}
	}
	paths, err := w.Daemon.ShowPaths(ia, sciond.ShowPathsOpts{
		MaxPaths: *maxPaths, Extended: *extended, Probe: *probe, ACL: acl,
	})
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "showpaths", "%v", err)
	}
	fmt.Print(sciond.FormatPaths(paths, *extended))
	return 0
}
