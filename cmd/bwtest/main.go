// Command bwtest mirrors scion-bwtestclient: bidirectional bandwidth tests
// with the bwtester parameter grammar — "-cs 3,64,?,12Mbps" for the
// client-to-server direction, "-sc" for server-to-client, "?" wildcards
// inferred, MTU resolving against the chosen path (§3.3).
//
// Usage:
//
//	bwtest -s 19-ffaa:0:1303 -cs 3,64,?,12Mbps
//	bwtest -s 19-ffaa:0:1303 -cs 3,MTU,?,150Mbps -sequence '...'
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/upin/scionpath/internal/bwtest"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bwtest", flag.ContinueOnError)
	var (
		server   = fs.String("s", "", "server: ISD-AS, host address or server id (required)")
		cs       = fs.String("cs", "3,1000,?,12Mbps", "client->server parameters duration,size,count,bw")
		sc       = fs.String("sc", "", "server->client parameters (defaults to -cs)")
		sequence = fs.String("sequence", "", "hop-predicate sequence pinning the path")
		seed     = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *server == "" {
		fs.Usage()
		return 2
	}
	w, err := cliutil.NewWorld(*seed, "")
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "bwtest", "%v", err)
	}
	ia, _, err := w.ResolveDestination(*server)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "bwtest", "%v", err)
	}
	var path *pathmgr.Path
	if *sequence != "" {
		seq, err := pathmgr.ParseSequence(*sequence)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "bwtest", "%v", err)
		}
		path, err = w.Daemon.ResolveSequence(ia, seq)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "bwtest", "%v", err)
		}
	} else {
		paths, err := w.Daemon.ShowPaths(ia, sciond.ShowPathsOpts{MaxPaths: 1})
		if err != nil || len(paths) == 0 {
			return cliutil.Fatalf(os.Stderr, "bwtest", "no path to %s: %v", ia, err)
		}
		path = paths[0]
	}

	csParams, err := bwtest.ParseParams(*cs, path.MTU)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "bwtest", "-cs: %v", err)
	}
	scParams := bwtest.Params{}
	if *sc != "" {
		scParams, err = bwtest.ParseParams(*sc, path.MTU)
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "bwtest", "-sc: %v", err)
		}
	}
	res, err := bwtest.Run(w.Net, path, csParams, scParams)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "bwtest", "%v", err)
	}
	fmt.Printf("bwtest to %s via %s\n", ia, path.Sequence())
	fmt.Printf("CS (%s): attempted %s, achieved %s, loss %.1f%% (%d/%d packets)\n",
		csParams, bwtest.FormatBandwidth(res.CS.AttemptedBps), bwtest.FormatBandwidth(res.CS.AchievedBps),
		100*res.CS.LossFraction, res.CS.PacketsReceived, res.CS.PacketsSent)
	used := csParams
	if scParams != (bwtest.Params{}) {
		used = scParams
	}
	fmt.Printf("SC (%s): attempted %s, achieved %s, loss %.1f%% (%d/%d packets)\n",
		used, bwtest.FormatBandwidth(res.SC.AttemptedBps), bwtest.FormatBandwidth(res.SC.AchievedBps),
		100*res.SC.LossFraction, res.SC.PacketsReceived, res.SC.PacketsSent)
	return 0
}
