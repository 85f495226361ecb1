package measure

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
)

// CollectOpts tunes the paths-collection stage.
type CollectOpts struct {
	// MaxPaths is the showpaths -m limit; the paper uses 40.
	MaxPaths int
	// HopSlack keeps paths with at most min+HopSlack hops; the paper
	// "decided to retain only paths with a number of hops at most equal to
	// the minimum required plus one" (§5.2).
	HopSlack int
	// Probe fills path status via SCMP probes.
	Probe bool
}

func (o CollectOpts) withDefaults() CollectOpts {
	if o.MaxPaths == 0 {
		o.MaxPaths = 40
	}
	if o.HopSlack == 0 {
		o.HopSlack = 1
	}
	return o
}

// Validate implements the package's option convention.
func (o CollectOpts) Validate() error {
	if o.MaxPaths < 1 {
		return fmt.Errorf("collect needs MaxPaths >= 1, have %d", o.MaxPaths)
	}
	if o.HopSlack < 0 {
		return fmt.Errorf("collect HopSlack %d is negative", o.HopSlack)
	}
	return nil
}

// CollectReport summarises a collection run.
type CollectReport struct {
	ServersQueried  int
	PathsDiscovered int
	PathsRetained   int
	PathsDeleted    int
	// Errors maps server ids to the error encountered (server failure
	// tolerance, §4.1.2).
	Errors map[int]error
}

// CollectPaths is the collect_paths stage: query availableServers, run
// showpaths per destination, filter by the hop-slack rule, pre-process into
// documents, insert, and delete paths that are no longer available (§5.2).
// Cancellation is honored between destinations: already-collected paths are
// kept and ctx's error is returned.
func CollectPaths(ctx context.Context, db *docdb.DB, d *sciond.Daemon, opts CollectOpts) (CollectReport, error) {
	opts = opts.withDefaults()
	rep := CollectReport{Errors: map[int]error{}}
	if err := opts.Validate(); err != nil {
		return rep, fmt.Errorf("measure: %w", err)
	}

	servers, err := Servers(db)
	if err != nil {
		return rep, err
	}
	if len(servers) == 0 {
		return rep, fmt.Errorf("measure: availableServers is empty; seed it first")
	}

	col := db.Collection(ColPaths)
	// The stage's per-destination replace below is two Eq(server_id)
	// queries on a collection that holds every destination's paths. It
	// ensures the index they plan through itself: a campaign process never
	// builds a selection engine, whose New would otherwise be the only
	// place the index comes from (docs/CAMPAIGN.md "The collect stage").
	col.EnsureIndex(FServerID)
	for _, srv := range servers {
		if err := ctx.Err(); err != nil {
			if ferr := db.Flush(); ferr != nil {
				return rep, ferr
			}
			return rep, fmt.Errorf("measure: collect cancelled: %w", err)
		}
		rep.ServersQueried++
		paths, err := d.ShowPaths(srv.Address.IA, sciond.ShowPathsOpts{
			MaxPaths: opts.MaxPaths, Extended: true, Probe: opts.Probe,
		})
		if err != nil {
			// A failing destination must not stop the run (§4.1.2).
			rep.Errors[srv.ID] = err
			continue
		}
		rep.PathsDiscovered += len(paths)
		paths = FilterByHopSlack(paths, opts.HopSlack)

		// Pre-process into documents (§5.2 "Data Pre-processing").
		docs := make([]docdb.Document, 0, len(paths))
		liveIDs := map[string]bool{}
		for i, p := range paths {
			id := PathID(srv.ID, i)
			liveIDs[id] = true
			docs = append(docs, pathDocument(id, srv.ID, i, p))
		}

		// Replace this destination's paths: delete stale ones, insert new
		// ("no longer available paths for one destination are deleted").
		byServer := docdb.Eq(FServerID, srv.ID)
		col.ForEach(docdb.Query{Filter: byServer}, func(old docdb.Document) bool {
			if !liveIDs[old.ID()] {
				rep.PathsDeleted++
			}
			return true
		})
		col.Delete(byServer)
		if err := col.InsertMany(docs); err != nil {
			rep.Errors[srv.ID] = err
			continue
		}
		rep.PathsRetained += len(docs)
	}
	if err := db.Flush(); err != nil {
		return rep, err
	}
	return rep, nil
}

// FilterByHopSlack keeps paths with hops <= min+slack, the paper's
// "overly lengthy" exclusion rule. The input must be hop-sorted (showpaths
// order); order is preserved.
func FilterByHopSlack(paths []*pathmgr.Path, slack int) []*pathmgr.Path {
	if len(paths) == 0 {
		return paths
	}
	min := paths[0].NumHops()
	for _, p := range paths[1:] {
		if p.NumHops() < min {
			min = p.NumHops()
		}
	}
	out := paths[:0:0]
	for _, p := range paths {
		if p.NumHops() <= min+slack {
			out = append(out, p)
		}
	}
	return out
}

// pathDocument encodes one path for the paths collection (Fig 3).
func pathDocument(id string, serverID, index int, p *pathmgr.Path) docdb.Document {
	isds := make([]any, 0, 4)
	for _, isd := range p.ISDSet() {
		isds = append(isds, strconv.Itoa(int(isd)))
	}
	return docdb.Document{
		"_id":        id,
		FServerID:    serverID,
		FPathIndex:   index,
		FHops:        p.NumHops(),
		FSequence:    pathmgr.PathSequence(p).String(),
		FISDs:        isds,
		FMTU:         p.MTU,
		FMinLatency:  float64(p.MinLatency) / float64(time.Millisecond),
		FStatus:      p.Status,
		FFingerprint: p.Fingerprint(),
	}
}

// PathDoc is a decoded paths document.
type PathDoc struct {
	ID       string
	ServerID int
	Index    int
	Hops     int
	Sequence pathmgr.Sequence
	ISDs     []string
	MTU      int
}

// PathsForServer decodes the stored paths of one destination in index order.
func PathsForServer(db *docdb.DB, serverID int) ([]PathDoc, error) {
	return decodePathDocs(db.Collection(ColPaths).Find(docdb.Query{
		Filter: docdb.Eq(FServerID, serverID),
		SortBy: FPathIndex,
	}))
}

// AllPaths decodes every stored path of every destination. The result is
// ordered by (path_index, _id) globally, so each destination's subsequence
// is in exactly PathsForServer order — the property the selection engine's
// snapshot cache relies on to reproduce per-server candidate order without
// one query per destination.
func AllPaths(db *docdb.DB) ([]PathDoc, error) {
	return decodePathDocs(db.Collection(ColPaths).Find(docdb.Query{SortBy: FPathIndex}))
}

func decodePathDocs(docs []docdb.Document) ([]PathDoc, error) {
	out := make([]PathDoc, 0, len(docs))
	for _, d := range docs {
		pd := PathDoc{ID: d.ID()}
		pd.ServerID, _ = asInt(d[FServerID])
		pd.Index, _ = asInt(d[FPathIndex])
		pd.Hops, _ = asInt(d[FHops])
		pd.MTU, _ = asInt(d[FMTU])
		seqStr, _ := d[FSequence].(string)
		seq, err := pathmgr.ParseSequence(seqStr)
		if err != nil {
			return nil, fmt.Errorf("measure: path %s: %w", pd.ID, err)
		}
		pd.Sequence = seq
		switch arr := d[FISDs].(type) {
		case []any:
			for _, v := range arr {
				pd.ISDs = append(pd.ISDs, fmt.Sprint(v))
			}
		case []string:
			pd.ISDs = append(pd.ISDs, arr...)
		}
		out = append(out, pd)
	}
	return out, nil
}
