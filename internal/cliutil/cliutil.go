// Package cliutil wires the command-line tools to a simulated SCIONLab
// world: the argument parsing, environment construction, destination and
// path choice, and error style that the tools under cmd/ share.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
)

// World bundles the simulated environment a tool runs against.
type World struct {
	Topo   *topology.Topology
	Net    *simnet.Network
	Daemon *sciond.Daemon
	DB     *docdb.DB
	// closeDB is non-nil for persistent databases.
	closeDB func() error
}

// NewWorld builds the default SCIONLab world with the given seed. When
// dbPath is non-empty the database persists to (and replays from) the
// docdb segment directory at that path; otherwise it is in-memory.
func NewWorld(seed int64, dbPath string) (*World, error) {
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		return nil, err
	}
	var db *docdb.DB
	var closer func() error
	if dbPath != "" {
		db, err = docdb.Open(docdb.WithPath(dbPath))
		if err != nil {
			return nil, err
		}
		closer = db.Close
	} else {
		db = docdb.MustOpen()
	}
	if err := measure.SeedServers(db, topo); err != nil {
		return nil, err
	}
	return &World{Topo: topo, Net: net, Daemon: daemon, DB: db, closeDB: closer}, nil
}

// Close flushes and closes a persistent database.
func (w *World) Close() error {
	if w.closeDB != nil {
		return w.closeDB()
	}
	return nil
}

// ResolveDestination accepts either an ISD-AS ("16-ffaa:0:1002"), a full
// SCION host address, or an availableServers id ("2"), and returns the
// destination AS plus the server id (0 when unknown to the catalogue).
func (w *World) ResolveDestination(s string) (addr.IA, int, error) {
	servers, err := measure.Servers(w.DB)
	if err != nil {
		return addr.IA{}, 0, err
	}
	// Bare integer: an availableServers id.
	var id int
	if _, err := fmt.Sscanf(s, "%d", &id); err == nil && fmt.Sprintf("%d", id) == s {
		for _, srv := range servers {
			if srv.ID == id {
				return srv.Address.IA, srv.ID, nil
			}
		}
		return addr.IA{}, 0, fmt.Errorf("no server with id %d (have 1..%d)", id, len(servers))
	}
	ia, err := addr.ParseIA(s)
	if err != nil {
		host, err2 := addr.ParseHost(s)
		if err2 != nil {
			return addr.IA{}, 0, fmt.Errorf("destination %q is neither a server id, ISD-AS nor host address", s)
		}
		ia = host.IA
	}
	for _, srv := range servers {
		if srv.Address.IA == ia {
			return ia, srv.ID, nil
		}
	}
	if w.Topo.AS(ia) == nil {
		return addr.IA{}, 0, fmt.Errorf("destination AS %s not in the topology", ia)
	}
	return ia, 0, nil
}

// ChoosePath picks the path to dst the way the path-using tools do: the
// path a hop-predicate sequence pins; with interactive, entry index of the
// extended listing, which it prints to out; otherwise the first path.
func (w *World) ChoosePath(out io.Writer, dst addr.IA, sequence string, interactive bool, index int) (*pathmgr.Path, error) {
	switch {
	case sequence != "":
		seq, err := pathmgr.ParseSequence(sequence)
		if err != nil {
			return nil, err
		}
		return w.Daemon.ResolveSequence(dst, seq)
	case interactive:
		paths, err := w.Daemon.ShowPaths(dst, sciond.ShowPathsOpts{MaxPaths: 40, Probe: true})
		if err != nil {
			return nil, err
		}
		fmt.Fprint(out, sciond.FormatPaths(paths, true))
		if index < 0 || index >= len(paths) {
			return nil, fmt.Errorf("path index %d out of range [0,%d)", index, len(paths))
		}
		fmt.Fprintf(out, "Using path %d: %s\n", index, paths[index])
		return paths[index], nil
	}
	paths, err := w.Daemon.ShowPaths(dst, sciond.ShowPathsOpts{MaxPaths: 1})
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no path to %s: %v", dst, err)
	}
	return paths[0], nil
}

// Parse parses args into fs like fs.Parse, except that flags may come
// before, between and after the positional arguments, which it returns in
// order. Everything after a "--" argument is positional; a string flag
// whose value is "--" must be written -name=--.
func Parse(fs *flag.FlagSet, args []string) ([]string, error) {
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		// fs.Parse stops at the first positional, or just after "--".
		rest := fs.Args()
		if stop := len(args) - len(rest); len(rest) == 0 || stop > 0 && args[stop-1] == "--" {
			return append(positional, rest...), nil
		}
		positional = append(positional, rest[0])
		args = rest[1:]
	}
}

// SplitList returns the trimmed, non-empty items of a comma-separated list.
func SplitList(s string) []string {
	var items []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			items = append(items, item)
		}
	}
	return items
}

// Fatalf prints an error in tool style and returns exit code 1.
func Fatalf(w io.Writer, tool, format string, args ...any) int {
	fmt.Fprintf(w, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	return 1
}
