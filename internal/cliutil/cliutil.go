// Package cliutil wires the command-line tools to a simulated SCIONLab
// world: flag helpers, environment construction and output helpers shared
// by cmd/testsuite, cmd/showpaths, cmd/scionping, cmd/traceroute,
// cmd/bwtest, cmd/pathselect and cmd/report.
package cliutil

import (
	"fmt"
	"io"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
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

// Fatalf prints an error in tool style and returns exit code 1.
func Fatalf(w io.Writer, tool, format string, args ...any) int {
	fmt.Fprintf(w, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	return 1
}
