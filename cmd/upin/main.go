// Command upin is the UPIN front-end (§2.1): it takes a user intent,
// measures the destination if the database is empty, lets the Path
// Controller decide a path, traces the installed path, verifies the intent
// against the trace, and prints ranked recommendations (the paper's
// future-work feature).
//
// Usage:
//
//	upin -d 1 -exclude-country 'United States' -profile voip
//	upin -d 1 -db stats.db -profile bulk -domain 16,17,19
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/upin"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("upin", flag.ContinueOnError)
	var (
		dest      = fs.String("d", "", "destination: server id, ISD-AS or host address (required)")
		dbPath    = fs.String("db", "", "measurement database (in-memory campaign when empty)")
		profile   = fs.String("profile", "browsing", "recommendation profile: voip | streaming | bulk | browsing")
		exCountry = fs.String("exclude-country", "", "comma-separated countries to avoid")
		exISD     = fs.String("exclude-isd", "", "comma-separated ISDs to avoid")
		domain    = fs.String("domain", "16,17,19", "comma-separated ISDs forming the UPIN domain")
		iters     = fs.Int("iterations", 3, "measurement iterations when the DB is empty")
		seed      = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dest == "" {
		fs.Usage()
		return 2
	}
	weights, err := profileWeights(*profile)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upin", "%v", err)
	}

	w, err := cliutil.NewWorld(*seed, *dbPath)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upin", "%v", err)
	}
	defer w.Close()
	ia, serverID, err := w.ResolveDestination(*dest)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upin", "%v", err)
	}
	if serverID == 0 {
		return cliutil.Fatalf(os.Stderr, "upin", "destination %s is not a catalogued server", *dest)
	}

	// Measure on demand so the tool works out of the box.
	existing := w.DB.Collection(measure.ColStats).Find(docdb.Query{
		Filter: docdb.Eq(measure.FServerID, serverID), Limit: 1,
	})
	if len(existing) == 0 {
		fmt.Printf("no measurements for server %d yet; running a %d-iteration campaign...\n", serverID, *iters)
		suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
		if _, err := suite.Run(context.Background(), measure.RunOpts{
			Iterations: *iters, ServerIDs: []int{serverID},
			PingCount: 10, PingInterval: 20 * time.Millisecond,
			BwDuration: 500 * time.Millisecond,
		}); err != nil {
			return cliutil.Fatalf(os.Stderr, "upin", "measurement: %v", err)
		}
	}

	intent := upin.Intent{
		ServerID: serverID,
		Request: selection.Request{
			ExcludeCountries: splitList(*exCountry),
			ExcludeISDs:      splitList(*exISD),
		},
	}
	explorer := upin.NewDomainExplorer(w.Topo, parseISDs(*domain))
	engine := selection.New(w.DB, w.Topo)

	// 1. Controller: decide.
	ctrl := upin.NewController(w.Daemon, engine, explorer)
	dec, err := ctrl.Decide(context.Background(), ia, intent)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upin", "%v", err)
	}
	fmt.Printf("\ncontroller decision: %s\n", selection.Explain(dec.Candidate))
	fmt.Printf("  installed sequence: %s\n", dec.Path.Sequence())

	// 2. Tracer: observe.
	trace, err := upin.NewTracer(w.Net).Trace(dec, 3)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upin", "%v", err)
	}
	fmt.Printf("\ntraced %d hops\n", len(trace.Hops))

	// 3. Verifier: check the intent.
	verdict := upin.NewVerifier(explorer).Verify(intent, trace)
	fmt.Printf("verifier: satisfied=%v\n", verdict.Satisfied)
	for _, v := range verdict.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	for _, ia := range verdict.Unverifiable {
		fmt.Printf("  unverifiable (outside UPIN domain): %s\n", ia)
	}

	// 4. Recommendations.
	recs, err := upin.Recommend(context.Background(), engine, intent, weights, 3)
	if err != nil {
		return cliutil.Fatalf(os.Stderr, "upin", "%v", err)
	}
	fmt.Printf("\ntop recommendations (%s profile):\n", *profile)
	for i, r := range recs {
		fmt.Printf("  %d. score %.2f — path %s — %s\n", i+1, r.Score, r.Candidate.PathID, r.Reason)
	}
	if !verdict.Satisfied {
		return 1
	}
	return 0
}

func profileWeights(name string) (upin.Weights, error) {
	switch strings.ToLower(name) {
	case "voip":
		return upin.ProfileVoIP, nil
	case "streaming":
		return upin.ProfileStreaming, nil
	case "bulk":
		return upin.ProfileBulk, nil
	case "browsing":
		return upin.ProfileBrowsing, nil
	default:
		return upin.Weights{}, fmt.Errorf("unknown profile %q", name)
	}
}

func parseISDs(s string) []addr.ISD {
	var out []addr.ISD
	for _, part := range strings.Split(s, ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && v > 0 {
			out = append(out, addr.ISD(v))
		}
	}
	return out
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
