// Command scionlint runs this module's self-contained static-analysis pass
// (internal/lint) over the tree. It is the tier-2 verify gate: verify.sh
// runs it on every PR, after go vet and before the race-detector tier.
//
// Usage:
//
//	scionlint [flags] [packages]
//
// Packages follow the go tool's pattern shape ("./...", "./internal/...",
// "./internal/docdb"); the default is "./...". The process exits 0 when no
// findings survive suppression, 1 when findings are reported, and 2 when
// loading or type-checking fails outright.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/upin/scionpath/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scionlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit diagnostics and summary as JSON (schema "+lint.JSONSchemaVersion+")")
		list      = fs.Bool("list", false, "list analyzers and exit")
		only      = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		dir       = fs.String("dir", ".", "directory to resolve packages from")
		byCounter = fs.Bool("counts", false, "append per-analyzer finding counts to the text report")
		fix       = fs.Bool("fix", false, "apply machine-applicable fixes in place; only unfixable findings fail the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, fset, err := lint.Load(lint.LoadConfig{Dir: *dir}, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "scionlint: no packages matched")
		return 2
	}
	diags, suppressed := lint.Run(fset, pkgs, analyzers)

	if *fix {
		res, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if res.Applied > 0 {
			fmt.Fprintf(stderr, "scionlint: applied %d fixes in %d files\n", res.Applied, len(res.Files))
		}
		diags = res.Remaining
	}

	wd, err := os.Getwd()
	if err != nil {
		wd = "."
	}
	sum := lint.Summarize(pkgs, diags, suppressed)
	if *jsonOut {
		if err := lint.WriteJSON(stdout, wd, diags, sum); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		if err := lint.WriteText(stdout, wd, diags, sum); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *byCounter {
			for _, line := range lint.CountByAnalyzer(diags) {
				fmt.Fprintln(stdout, "  "+line)
			}
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
