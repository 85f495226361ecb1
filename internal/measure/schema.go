// Package measure implements the paper's test-suite: the paths-collection
// stage (collect_paths.py), the measurement runner (run_test.py) with its
// three nested loops, and the database schema of Fig 3 — availableServers,
// paths and paths_stats collections.
package measure

import (
	"fmt"
	"strconv"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/topology"
)

// Collection names. The first three match the paper's database schema
// (Fig 3); campaign_progress is the campaign engine's checkpoint journal
// (one document per completed measurement cell, plus one metadata document
// per campaign) that makes interrupted campaigns resumable.
const (
	ColServers  = "availableServers"
	ColPaths    = "paths"
	ColStats    = "paths_stats"
	ColProgress = "campaign_progress"
)

// Server document fields.
const (
	FServerID = "server_id"
	FAddress  = "address"
	FIA       = "ia"
	FName     = "name"
	FCountry  = "country"
	FOperator = "operator"
)

// Path document fields.
const (
	FPathIndex   = "path_index"
	FHops        = "hops"
	FSequence    = "hop_predicates"
	FISDs        = "isds"
	FMTU         = "mtu"
	FMinLatency  = "min_latency_ms"
	FStatus      = "status"
	FFingerprint = "fingerprint"
)

// Stats document fields. Latencies are milliseconds, loss is percent,
// bandwidths are bits per second; "up" is client->server, "down" is
// server->client; the 64/mtu suffix is the probe packet size (§5.3).
const (
	FPathID     = "path_id"
	FTimestamp  = "timestamp_ms"
	FAvgLatency = "avg_latency_ms"
	FMdev       = "mdev_ms"
	FLoss       = "loss_pct"
	FBwUp64     = "bw_up_64_bps"
	FBwDown64   = "bw_down_64_bps"
	FBwUpMTU    = "bw_up_mtu_bps"
	FBwDownMTU  = "bw_down_mtu_bps"
	FTargetBps  = "target_bps"
	FError      = "error"
)

// Campaign-progress document fields (see docs/CAMPAIGN.md for the schema).
const (
	FCampaign   = "campaign"
	FIteration  = "iteration"
	FSeed       = "seed"
	FBaseMs     = "base_ms"
	FStrideMs   = "stride_ms"
	FConfig     = "config"
	FAttempts   = "attempts"
	FCellTested = "paths_tested"
	FCellStored = "stats_stored"
	FCellFail   = "failures"
	FCellUnres  = "unresolved"
	FCellSimMs  = "sim_ms"
)

// CampaignMetaID is the _id of a campaign's metadata document.
func CampaignMetaID(campaign string) string {
	return fmt.Sprintf("meta:%s", campaign)
}

// CellID is the _id of a completed-cell checkpoint: one cell is the
// (iteration, destination) grid point of a campaign.
func CellID(campaign string, iteration, serverID int) string {
	return fmt.Sprintf("cell:%s:%d:%d", campaign, iteration, serverID)
}

// PathID builds the paper's path identifier: "a path whose id is 2_15
// identifies the path 15 of the destination 2" (§4.2.1).
func PathID(serverID, pathIndex int) string {
	return string(appendPathID(make([]byte, 0, 16), serverID, pathIndex))
}

func appendPathID(b []byte, serverID, pathIndex int) []byte {
	b = strconv.AppendInt(b, int64(serverID), 10)
	b = append(b, '_')
	return strconv.AppendInt(b, int64(pathIndex), 10)
}

// StatsID builds a stats document identifier by "combining the path
// identifier with a timestamp" (§4.2.1).
func StatsID(pathID string, ts time.Duration) string {
	return fmt.Sprintf("%s@%d", pathID, ts.Milliseconds())
}

// SeedServers populates availableServers from the topology's server
// catalogue, assigning the progressive integer ids (1..N) the paper uses.
// It is idempotent: an already seeded database is left untouched.
func SeedServers(db *docdb.DB, topo *topology.Topology) error {
	col := db.Collection(ColServers)
	if col.Count() > 0 {
		return nil
	}
	servers := topo.Servers()
	docs := make([]docdb.Document, 0, len(servers))
	for i, s := range servers {
		as := topo.AS(s.IA)
		docs = append(docs, docdb.Document{
			"_id":     fmt.Sprintf("%d", i+1),
			FServerID: i + 1,
			FAddress:  s.String(),
			FIA:       s.IA.String(),
			FName:     as.Name,
			FCountry:  as.Site.Country,
			FOperator: as.Operator,
		})
	}
	return col.InsertMany(docs)
}

// Server is a decoded availableServers document.
type Server struct {
	ID       int
	Address  addr.Host
	Name     string
	Country  string
	Operator string
}

// Servers decodes the availableServers collection in id order.
func Servers(db *docdb.DB) ([]Server, error) {
	docs := db.Collection(ColServers).Find(docdb.Query{SortBy: FServerID})
	out := make([]Server, 0, len(docs))
	for _, d := range docs {
		id, ok := asInt(d[FServerID])
		if !ok {
			return nil, fmt.Errorf("measure: server doc %q has no %s", d.ID(), FServerID)
		}
		rawAddr, _ := d[FAddress].(string)
		host, err := addr.ParseHost(rawAddr)
		if err != nil {
			return nil, fmt.Errorf("measure: server %d: %w", id, err)
		}
		s := Server{ID: id, Address: host}
		s.Name, _ = d[FName].(string)
		s.Country, _ = d[FCountry].(string)
		s.Operator, _ = d[FOperator].(string)
		out = append(out, s)
	}
	return out, nil
}

// asInt converts the numeric types a JSON round trip may produce.
func asInt(v any) (int, bool) {
	switch t := v.(type) {
	case int:
		return t, true
	case int64:
		return int(t), true
	case float64:
		return int(t), true
	default:
		return 0, false
	}
}
