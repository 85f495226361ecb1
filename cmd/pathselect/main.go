// Command pathselect is the user-facing path selection tool: it queries the
// measurement database for the best path to a destination under performance
// requirements and geographic/sovereignty exclusions — the paper's
// user-driven path control step ("select the best path to give to a user to
// reach a destination, following their request on performance or devices to
// exclude").
//
// Usage:
//
//	pathselect -d 2 -db stats.jsonl -objective latency
//	pathselect -d 16-ffaa:0:1002 -db stats.jsonl -exclude-country 'United States' -max-loss 1
//	pathselect -d 2 -db stats.jsonl -objective stable -top 5
//	pathselect -d 2 -db stats.jsonl -set 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/selection"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("pathselect", flag.ContinueOnError)
	var (
		dest       = fs.String("d", "", "destination: server id, ISD-AS or host address (required)")
		dbPath     = fs.String("db", "", "measurement database journal (required; produce with testsuite --db)")
		dbBackend  = fs.String("docdb-backend", "", "docdb storage backend: jsonl or segment (auto-detect when empty)")
		objective  = fs.String("objective", "latency", "latency | bandwidth | loss | stable")
		maxLatency = fs.Float64("max-latency", 0, "maximum average latency in ms (0 = unconstrained)")
		maxLoss    = fs.Float64("max-loss", 0, "maximum average loss in percent")
		minBw      = fs.Float64("min-bw", 0, "minimum bandwidth in Mbps (both directions)")
		maxJitter  = fs.Float64("max-jitter", 0, "maximum latency jitter in ms")
		exISD      = fs.String("exclude-isd", "", "comma-separated ISDs to avoid")
		exAS       = fs.String("exclude-as", "", "comma-separated ISD-AS identifiers to avoid")
		exCountry  = fs.String("exclude-country", "", "comma-separated countries to avoid")
		exOperator = fs.String("exclude-operator", "", "comma-separated operators to avoid")
		top        = fs.Int("top", 3, "how many ranked candidates to print (0 = all)")
		setK       = fs.Int("set", 0, "select a disjointness-aware path SET of this size instead of a ranking (0 = off)")
		seed       = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dest == "" || *dbPath == "" {
		fs.Usage()
		return 2
	}
	w, err := cliutil.NewWorld(*seed, *dbPath, *dbBackend)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "pathselect", "%v", err)
	}
	defer w.Close()
	_, serverID, err := w.ResolveDestination(*dest)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "pathselect", "%v", err)
	}
	if serverID == 0 {
		return cliutil.Fatalf(os.Stderr, "pathselect", "destination %s is not a catalogued server", *dest)
	}
	obj, err := selection.ParseObjective(*objective)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "pathselect", "%v", err)
	}
	req := selection.Request{
		Objective:        obj,
		MaxLatencyMs:     *maxLatency,
		MaxLossPct:       *maxLoss,
		MinBandwidthBps:  *minBw * 1e6,
		MaxJitterMs:      *maxJitter,
		ExcludeISDs:      splitList(*exISD),
		ExcludeASes:      splitList(*exAS),
		ExcludeCountries: splitList(*exCountry),
		ExcludeOperators: splitList(*exOperator),
	}
	engine := selection.New(w.DB, w.Topo)
	if *setK > 0 {
		set, err := engine.SelectSet(context.Background(), serverID,
			selection.SetRequest{Request: req, K: *setK})
		if err != nil {
			return cliutil.Fatalf(os.Stderr, "pathselect", "%v", err)
		}
		fmt.Printf("path set of %d to server %d (objective: %s, disjointness %.2f, shared links %d, shared ASes %d)\n",
			len(set.Paths), serverID, obj, set.Disjointness, set.SharedLinks, set.SharedASes)
		for i, c := range set.Paths {
			fmt.Printf("%d. %s\n", i+1, selection.Explain(c))
			fmt.Printf("   sequence: %s\n", c.Sequence)
		}
		return 0
	}
	cands, err := engine.SelectTop(context.Background(), serverID, req, *top)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "pathselect", "%v", err)
	}
	if len(cands) == 0 {
		fmt.Printf("no path to server %d satisfies the request\n", serverID)
		return 1
	}
	fmt.Printf("top %d candidate paths to server %d (objective: %s)\n", len(cands), serverID, obj)
	for i, c := range cands {
		fmt.Printf("%d. %s\n", i+1, selection.Explain(c))
		fmt.Printf("   sequence: %s\n", c.Sequence)
	}
	return 0
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
