// Command scion mirrors the SCION end-host tool the paper's users drive
// (§3.3, §4.1): list the paths to a destination, pick one, ping it.
//
//	scion address
//	scion showpaths 16-ffaa:0:1002 --extended -m 40
//	scion ping 16-ffaa:0:1002 -c 30 --interval 100ms
//	scion ping 16-ffaa:0:1002 --interactive --path 3
//	scion traceroute 16-ffaa:0:1002 --sequence '17-ffaa:1:1 * 19-0 *'
//
// Flags go before or after the destination. Each subcommand's errors and
// usage carry the name of the stand-alone tool it replaced.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/topology"
)

const usage = "usage: scion {address | showpaths | ping | traceroute} [destination] [flags]\n"

var commands = map[string]struct {
	tool string // the stand-alone tool it replaced
	dest bool   // takes one destination
	// sub registers the flags and returns the body to run on the world.
	sub func(fs *flag.FlagSet, out io.Writer) func(w *cliutil.World, dst addr.IA) error
}{
	"address":    {"scionaddr", false, address},
	"showpaths":  {"showpaths", true, showpaths},
	"ping":       {"scionping", true, ping},
	"traceroute": {"traceroute", true, traceroute},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "scion: unknown command %q\n%s", args[0], usage)
		return 2
	}
	fs := flag.NewFlagSet(cmd.tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "simulation seed")
	body := cmd.sub(fs, stdout)
	pos, err := cliutil.Parse(fs, args[1:])
	if err != nil {
		return 2
	}
	if cmd.dest && len(pos) != 1 {
		fmt.Fprintf(stderr, "%s: exactly one destination required\n", cmd.tool)
		return 2
	}
	var dst addr.IA
	w, err := cliutil.NewWorld(*seed, "")
	if err == nil && cmd.dest {
		dst, _, err = w.ResolveDestination(pos[0])
	}
	if err == nil {
		err = body(w, dst)
	}
	if err != nil {
		return cliutil.Fatalf(stderr, cmd.tool, "%v", err)
	}
	return 0
}

// pathFlags registers the path-choice flags of ping and traceroute.
func pathFlags(fs *flag.FlagSet, out io.Writer) func(w *cliutil.World, dst addr.IA) (*pathmgr.Path, error) {
	sequence := fs.String("sequence", "", "hop-predicate sequence pinning the path")
	interactive := fs.Bool("interactive", false, "list paths and select with --path")
	index := fs.Int("path", 0, "path index for --interactive")
	return func(w *cliutil.World, dst addr.IA) (*pathmgr.Path, error) {
		return w.ChoosePath(out, dst, *sequence, *interactive, *index)
	}
}

// address prints the local host's address — "our AS where we launch
// commands from" (§3.3) — and its attachment.
func address(_ *flag.FlagSet, out io.Writer) func(*cliutil.World, addr.IA) error {
	return func(w *cliutil.World, _ addr.IA) error {
		local := w.Daemon.LocalIA()
		as := w.Topo.AS(local)
		fmt.Fprintf(out, "%s\nISD: %d  AS: %s  (%s, %s)\n", w.Daemon.Address(), local.ISD, local.AS, as.Name, as.Site.Country)
		if l := w.Topo.LinkBetween(topology.ETHZAP, local); l != nil {
			fmt.Fprintf(out, "attachment point: %s (%s), access %.0f Mbps down / %.0f Mbps up\n",
				topology.ETHZAP, w.Topo.AS(topology.ETHZAP).Name, l.CapacityAtoB/1e6, l.CapacityBtoA/1e6)
		}
		return nil
	}
}

// showpaths lists the paths ranked by hop count, optionally with the
// --extended block the paper's collector parses.
func showpaths(fs *flag.FlagSet, out io.Writer) func(*cliutil.World, addr.IA) error {
	maxPaths := fs.Int("m", sciond.DefaultMaxPaths, "maximum number of paths to display")
	extended := fs.Bool("extended", false, "show extended path metadata")
	probe := fs.Bool("probe", true, "probe path liveness")
	acl := fs.String("acl", "", "path policy, e.g. '- 16-ffaa:0:1004#0'")
	return func(w *cliutil.World, dst addr.IA) error {
		opts := sciond.ShowPathsOpts{MaxPaths: *maxPaths, Extended: *extended, Probe: *probe}
		if *acl != "" {
			var err error
			if opts.ACL, err = pathmgr.ParseACL(*acl); err != nil {
				return err
			}
		}
		paths, err := w.Daemon.ShowPaths(dst, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, sciond.FormatPaths(paths, *extended))
		return nil
	}
}

// ping sends SCMP echo requests with the --count and --interval the
// paper's test-suite drives (§5.3).
func ping(fs *flag.FlagSet, out io.Writer) func(*cliutil.World, addr.IA) error {
	count := fs.Int("c", 30, "number of SCMP echo packets (--count)")
	interval := fs.Duration("interval", 100*time.Millisecond, "inter-packet interval")
	choose := pathFlags(fs, out)
	return func(w *cliutil.World, dst addr.IA) error {
		path, err := choose(w, dst)
		if err != nil {
			return err
		}
		stats, err := scmp.Ping(w.Net, path, scmp.PingOpts{Count: *count, Interval: *interval})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "PING %s via %s\n%s\n", dst, path.Sequence(), stats)
		return nil
	}
}

// traceroute probes every hop of the path, "particularly useful to test
// how the latency is affected by each link" (§3.3).
func traceroute(fs *flag.FlagSet, out io.Writer) func(*cliutil.World, addr.IA) error {
	probes := fs.Int("probes", 3, "probes per hop")
	choose := pathFlags(fs, out)
	return func(w *cliutil.World, dst addr.IA) error {
		path, err := choose(w, dst)
		if err != nil {
			return err
		}
		hops, err := scmp.Traceroute(w.Net, path, *probes)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "traceroute to %s, %d hops\n", dst, len(hops))
		for _, h := range hops {
			fmt.Fprintf(out, "%2d %-28s", h.Index+1, h.Hop.String())
			if h.Timeout {
				fmt.Fprint(out, " *")
			}
			for _, rtt := range h.RTTs {
				fmt.Fprintf(out, " %v", rtt.Round(10*time.Microsecond))
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}
