package measure

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/upin/scionpath/internal/addr"
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
	// Rewritten counts the destinations whose stored documents differed
	// from the live path set and were replaced; every other destination
	// queried without error was compared and left untouched.
	Rewritten int
	// Errors maps server ids to the lookup error encountered (server
	// failure tolerance, §4.1.2): the destination's stored paths are kept.
	Errors map[int]error
}

var errNoServers = errors.New("measure: availableServers is empty; seed it first")

// CollectPaths is the collect_paths stage: query availableServers, run
// showpaths per destination, filter by the hop-slack rule, and make the
// destination's documents in the paths collection equal to the result —
// "no longer available paths for one destination are deleted" (§5.2). A
// destination whose stored documents already equal what would be written is
// not written at all (neither generation of the collection moves); any
// difference replaces the destination's documents wholesale. A failing
// lookup is recorded per destination and the stage goes on; a failing write
// aborts it. Cancellation is honored between destinations:
// already-collected paths are kept and ctx's error is returned.
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
		return rep, errNoServers
	}
	return collectServers(ctx, db, d, opts, servers)
}

// collector is one run of the stage: the report it fills and the scratch
// the per-destination compare renders into, so that an unchanged path costs
// no allocation.
type collector struct {
	col  *docdb.Collection
	rep  CollectReport
	buf  []byte
	isds []addr.ISD
}

// collectServers runs the stage over the given destinations, in order. opts
// has its defaults applied. The campaign engine calls it twice per run —
// the measured destinations before the cells, the rest of the catalogue
// after them (docs/CAMPAIGN.md "Sharding: the cell grid").
func collectServers(ctx context.Context, db *docdb.DB, d *sciond.Daemon, opts CollectOpts, servers []Server) (CollectReport, error) {
	c := collector{col: db.Collection(ColPaths), rep: CollectReport{Errors: map[int]error{}}}
	// The per-destination queries below are Eq(server_id) on a collection
	// that holds every destination's paths. The stage ensures the index they
	// plan through itself: a campaign process never builds a selection
	// engine, whose New would otherwise be the only place the index comes
	// from (docs/CAMPAIGN.md "The collect stage").
	c.col.EnsureIndex(FServerID)
	for _, srv := range servers {
		if err := ctx.Err(); err != nil {
			if ferr := db.Flush(); ferr != nil {
				return c.rep, ferr
			}
			return c.rep, fmt.Errorf("measure: collect cancelled: %w", err)
		}
		c.rep.ServersQueried++
		paths, err := d.ShowPaths(srv.Address.IA, sciond.ShowPathsOpts{
			MaxPaths: opts.MaxPaths, Extended: true, Probe: opts.Probe,
		})
		if err != nil {
			// A failing destination must not stop the run (§4.1.2).
			c.rep.Errors[srv.ID] = err
			continue
		}
		c.rep.PathsDiscovered += len(paths)
		if err := c.store(srv.ID, FilterByHopSlack(paths, opts.HopSlack)); err != nil {
			return c.rep, err
		}
	}
	if err := db.Flush(); err != nil {
		return c.rep, err
	}
	return c.rep, nil
}

// store makes one destination's stored documents equal to paths. One
// zero-copy pass over the stored documents counts the ids that are gone
// (PathsDeleted) and compares the rest with the live paths; only when they
// differ in any way — a missing, extra, stale or edited document — are the
// destination's documents deleted and written again, so there is one write
// path and it repairs whatever it finds.
func (c *collector) store(serverID int, paths []*pathmgr.Path) error {
	byServer := docdb.Eq(FServerID, serverID)
	kept, same := 0, true
	c.col.ForEach(docdb.Query{Filter: byServer}, func(old docdb.Document) bool {
		i, live := c.liveIndex(old.ID(), serverID, len(paths))
		if !live {
			c.rep.PathsDeleted++
			same = false
			return true
		}
		kept++
		same = same && c.matches(old, serverID, i, paths[i])
		return true
	})
	if !same || kept != len(paths) {
		// Pre-process into documents (§5.2 "Data Pre-processing").
		docs := make([]docdb.Document, len(paths))
		for i, p := range paths {
			docs[i] = pathDocument(PathID(serverID, i), serverID, i, p)
		}
		c.col.Delete(byServer)
		if err := c.col.InsertMany(docs); err != nil {
			return fmt.Errorf("measure: storing paths for server %d: %w", serverID, err)
		}
		c.rep.Rewritten++
	}
	c.rep.PathsRetained += len(paths)
	return nil
}

// liveIndex reports whether a stored _id is PathID(serverID, i) for one of
// the n live paths, and which.
func (c *collector) liveIndex(id string, serverID, n int) (int, bool) {
	_, index, _ := strings.Cut(id, "_")
	i, err := strconv.Atoi(index)
	if err != nil || i < 0 || i >= n {
		return 0, false
	}
	// Atoi also reads "+7" and "007", and the id may be filed under another
	// server's: only the canonical rendering is the id.
	c.buf = appendPathID(c.buf[:0], serverID, i)
	return i, id == string(c.buf)
}

// matches reports whether a stored document whose _id is
// PathID(serverID, index) is field for field what pathDocument would write
// for p, without building that document. Numbers compare by value: a
// document replayed from the log holds int64 where a fresh one holds int,
// and one imported from JSON holds float64.
func (c *collector) matches(old docdb.Document, serverID, index int, p *pathmgr.Path) bool {
	if len(old) != pathDocumentFields ||
		!numEq(old[FServerID], float64(serverID)) ||
		!numEq(old[FPathIndex], float64(index)) ||
		!numEq(old[FHops], float64(p.NumHops())) ||
		!numEq(old[FMTU], float64(p.MTU)) ||
		!numEq(old[FMinLatency], minLatencyMs(p)) {
		return false
	}
	if status, ok := old[FStatus].(string); !ok || status != p.Status {
		return false
	}
	c.buf = pathmgr.AppendPathSequence(c.buf[:0], p)
	if seq, ok := old[FSequence].(string); !ok || seq != string(c.buf) {
		return false
	}
	c.buf = p.AppendFingerprint(c.buf[:0])
	if fp, ok := old[FFingerprint].(string); !ok || fp != string(c.buf) {
		return false
	}
	c.isds = p.AppendISDSet(c.isds[:0])
	isds, ok := old[FISDs].([]any)
	if !ok || len(isds) != len(c.isds) {
		return false
	}
	for k, isd := range c.isds {
		c.buf = strconv.AppendInt(c.buf[:0], int64(isd), 10)
		if s, ok := isds[k].(string); !ok || s != string(c.buf) {
			return false
		}
	}
	return true
}

// numEq compares a stored number, in any of the types a document may hold
// it in, with the value a fresh document would carry.
func numEq(v any, want float64) bool {
	switch t := v.(type) {
	case int:
		return float64(t) == want
	case int64:
		return float64(t) == want
	case float64:
		return t == want
	default:
		return false
	}
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
// collector.matches compares a stored document against exactly these
// fields; TestCollectComparesEveryField holds the two together.
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
		FSequence:    string(pathmgr.AppendPathSequence(nil, p)),
		FISDs:        isds,
		FMTU:         p.MTU,
		FMinLatency:  minLatencyMs(p),
		FStatus:      p.Status,
		FFingerprint: p.Fingerprint(),
	}
}

// pathDocumentFields is how many fields pathDocument writes; a stored
// document with more or fewer is not one of its.
var pathDocumentFields = len(pathDocument("", 0, 0, &pathmgr.Path{}))

func minLatencyMs(p *pathmgr.Path) float64 {
	return float64(p.MinLatency) / float64(time.Millisecond)
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
	return decodePaths(db, docdb.Query{
		Filter: docdb.Eq(FServerID, serverID),
		SortBy: FPathIndex,
	})
}

// AllPaths decodes every stored path of every destination. The result is
// ordered by (path_index, _id) globally, so each destination's subsequence
// is in exactly PathsForServer order — the property the selection engine's
// snapshot cache relies on to reproduce per-server candidate order without
// one query per destination.
func AllPaths(db *docdb.DB) ([]PathDoc, error) {
	return decodePaths(db, docdb.Query{SortBy: FPathIndex})
}

// decodePaths streams the matching paths documents zero-copy: decodePathDoc
// copies every field it keeps, so cloning them first would be pure overhead.
func decodePaths(db *docdb.DB, q docdb.Query) ([]PathDoc, error) {
	out := []PathDoc{}
	var err error
	db.Collection(ColPaths).ForEach(q, func(d docdb.Document) bool {
		var pd PathDoc
		if pd, err = decodePathDoc(d); err != nil {
			return false
		}
		out = append(out, pd)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func decodePathDoc(d docdb.Document) (PathDoc, error) {
	pd := PathDoc{ID: d.ID()}
	pd.ServerID, _ = asInt(d[FServerID])
	pd.Index, _ = asInt(d[FPathIndex])
	pd.Hops, _ = asInt(d[FHops])
	pd.MTU, _ = asInt(d[FMTU])
	seqStr, _ := d[FSequence].(string)
	seq, err := pathmgr.ParseSequence(seqStr)
	if err != nil {
		return pd, fmt.Errorf("measure: path %s: %w", pd.ID, err)
	}
	pd.Sequence = seq
	switch arr := d[FISDs].(type) {
	case []any:
		for _, v := range arr {
			if s, ok := v.(string); ok {
				pd.ISDs = append(pd.ISDs, s)
			} else {
				pd.ISDs = append(pd.ISDs, fmt.Sprint(v))
			}
		}
	case []string:
		pd.ISDs = append(pd.ISDs, arr...)
	}
	return pd, nil
}
