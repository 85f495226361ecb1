package upin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
)

// Server is the UPIN Front-end of §2.1: "a method of communication between
// the user and the domain". It exposes the catalogue, the measured path
// candidates, and an intent endpoint that runs the full controller ->
// tracer -> verifier pipeline and returns recommendations.
type Server struct {
	db       *docdb.DB
	daemon   *sciond.Daemon
	net      *simnet.Network
	engine   *selection.Engine
	explorer *DomainExplorer
	mux      *http.ServeMux
	ctrl     *Controller
	tracer   *Tracer
	logger   *slog.Logger
	// catalog caches the id -> IA server catalogue, revalidated against the
	// availableServers collection generation (see serverIA).
	catalog atomic.Pointer[serverCatalog]

	// Serving counters (see /api/stats and docs/LOAD.md): requests seen,
	// requests currently inside a handler, and 503s written since start.
	// The load harness asserts against these.
	reqTotal    atomic.Int64
	reqInflight atomic.Int64
	unavailable atomic.Int64

	// closeMu drains in-flight requests on Close: every request holds the
	// read side for its whole lifetime (including any snapshot refresh it
	// triggers inside the selection engine), and Close takes the write side,
	// so Close returns only after the last in-flight handler has. An RWMutex
	// instead of a WaitGroup because Add-after-Wait is a race, while a new
	// RLock simply queues behind the pending Close and then sees closed.
	closeMu sync.RWMutex
	closed  bool // guarded by closeMu
}

// NewServer wires the front-end.
func NewServer(db *docdb.DB, daemon *sciond.Daemon, net *simnet.Network,
	engine *selection.Engine, explorer *DomainExplorer) *Server {
	s := &Server{
		db: db, daemon: daemon, net: net, engine: engine, explorer: explorer,
		mux:    http.NewServeMux(),
		ctrl:   NewController(daemon, engine, explorer),
		tracer: NewTracer(net),
		logger: slog.Default(),
	}
	s.mux.HandleFunc("GET /api/health", s.handleHealth)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/servers", s.handleServers)
	s.mux.HandleFunc("GET /api/nodes", s.handleNodes)
	s.mux.HandleFunc("GET /api/paths", s.handlePaths)
	s.mux.HandleFunc("GET /api/pathset", s.handlePathSet)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("POST /api/intent", s.handleIntent)
	return s
}

// SetLogger directs the server's operational log (response-encode failures,
// client write errors). The default is slog.Default(). Call before serving.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.logger = l
	}
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	pathID := r.URL.Query().Get("path")
	if pathID == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?path=<id>"))
		return
	}
	traces, err := LoadTraces(s.db, pathID)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	type row struct {
		ID       string   `json:"id"`
		Observed []string `json:"observed_hops"`
		TimeMs   int64    `json:"timestamp_ms"`
	}
	out := make([]row, 0, len(traces))
	for _, tr := range traces {
		out = append(out, row{tr.ID, tr.Observed, tr.TimeMs})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// ServeHTTP implements http.Handler. Requests arriving after Close are
// refused with 503 instead of racing a database that may be shutting down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	s.reqInflight.Add(1)
	defer s.reqInflight.Add(-1)
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("upin: server is shut down"))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Close drains the server: it blocks until every in-flight request has
// finished — even ones whose client context was already cancelled but that
// are still inside a handler (e.g. mid snapshot refresh or mid trace
// write) — then marks the server down. It does not close the database; the
// owner of the DB does that after Close returns, which is the ordering that
// makes the shutdown safe.
func (s *Server) Close() error {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":        "ok",
		"local_ia":      s.daemon.LocalIA().String(),
		"simulated_ms":  s.net.Now().Milliseconds(),
		"stats_stored":  s.db.Collection(measure.ColStats).Count(),
		"paths_stored":  s.db.Collection(measure.ColPaths).Count(),
		"servers_known": s.db.Collection(measure.ColServers).Count(),
	}
	if info, ok := s.engine.SnapshotInfo(); ok {
		doc["snapshot_generation"] = info.StatsGeneration
		doc["snapshot_generation_lag"] = info.GenerationLag
		doc["snapshot_paths"] = info.Paths
		doc["snapshot_stats_folded"] = info.StatsFolded
	}
	doc["requests_in_flight"] = s.reqInflight.Load()
	s.writeJSON(w, http.StatusOK, doc)
}

// ServingStats is one point-in-time reading of the serving counters. The
// cluster router aggregates these across shards for its own /api/stats.
// GenerationLag is how far the collections have moved past the serving
// snapshot: 0 when current, positive only until the next request, which
// folds the waiting writes before it is answered.
type ServingStats struct {
	RequestsTotal    int64 `json:"requests_total"`
	RequestsInFlight int64 `json:"requests_in_flight"`
	UnavailableTotal int64 `json:"unavailable_total"`
	SnapshotGen      int64 `json:"snapshot_generation"`
	GenerationLag    int64 `json:"snapshot_generation_lag"`
	SnapshotPaths    int   `json:"snapshot_paths"`
	Rebuilds         int64 `json:"snapshot_rebuilds"`
	Folds            int64 `json:"snapshot_folds"`
	Coalesced        int64 `json:"snapshot_refreshes_coalesced"`
}

// Stats reads the serving counters. The fields are sampled independently
// (each is its own atomic), which is fine for observability: no reading is
// ever torn, only slightly skewed across fields.
func (s *Server) Stats() ServingStats {
	st := ServingStats{
		RequestsTotal:    s.reqTotal.Load(),
		RequestsInFlight: s.reqInflight.Load(),
		UnavailableTotal: s.unavailable.Load(),
	}
	st.Rebuilds, st.Folds, st.Coalesced = s.engine.Counters()
	if info, ok := s.engine.SnapshotInfo(); ok {
		st.SnapshotGen = info.StatsGeneration
		st.GenerationLag = info.GenerationLag
		st.SnapshotPaths = info.Paths
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleServers(w http.ResponseWriter, _ *http.Request) {
	servers, err := measure.Servers(s.db)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	type row struct {
		ID       int    `json:"id"`
		Address  string `json:"address"`
		Name     string `json:"name"`
		Country  string `json:"country"`
		Operator string `json:"operator"`
	}
	out := make([]row, 0, len(servers))
	for _, srv := range servers {
		out = append(out, row{srv.ID, srv.Address.String(), srv.Name, srv.Country, srv.Operator})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleNodes(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		IA       string `json:"ia"`
		Name     string `json:"name"`
		Type     string `json:"type"`
		Country  string `json:"country"`
		Operator string `json:"operator"`
		InDomain bool   `json:"in_domain"`
	}
	nodes := s.explorer.Nodes()
	out := make([]row, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, row{n.IA.String(), n.Name, n.Type.String(), n.Country, n.Operator, n.InDomain})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query() // parsed once: each call re-parses the raw query
	id, err := strconv.Atoi(q.Get("server"))
	if err != nil || id < 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing or invalid ?server=<id>"))
		return
	}
	top := 0 // 0 = all candidates
	if v := q.Get("top"); v != "" {
		top, err = strconv.Atoi(v)
		if err != nil || top < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid ?top=%q: want a positive integer", v))
			return
		}
	}
	// top=K is a prefix of the full best-first ranking: the engine ranks
	// over its aggregates and builds only the K candidates served.
	cands, err := s.engine.SelectTop(r.Context(), id, selection.Request{}, top)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, candidatesJSON(cands))
}

// pathSetJSON is the /api/pathset response: the selected set plus the
// engine's disjointness accounting (docs/SELECTION.md).
type pathSetJSON struct {
	ServerID     int             `json:"server_id"`
	K            int             `json:"k"`
	Paths        []candidateJSON `json:"paths"`
	Disjointness float64         `json:"disjointness"`
	SharedLinks  int             `json:"shared_links"`
	SharedASes   int             `json:"shared_ases"`
}

func (s *Server) handlePathSet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err := strconv.Atoi(q.Get("server"))
	if err != nil || id < 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing or invalid ?server=<id>"))
		return
	}
	k := 0 // 0 = engine default (2)
	if v := q.Get("k"); v != "" {
		k, err = strconv.Atoi(v)
		if err != nil || k < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid ?k=%q: want a positive integer", v))
			return
		}
	}
	req := selection.SetRequest{K: k}
	if v := q.Get("objective"); v != "" {
		obj, err := selection.ParseObjective(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		req.Objective = obj
	}
	set, err := s.engine.SelectSet(r.Context(), id, req)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, pathSetJSON{
		ServerID:     id,
		K:            len(set.Paths),
		Paths:        candidatesJSON(set.Paths),
		Disjointness: set.Disjointness,
		SharedLinks:  set.SharedLinks,
		SharedASes:   set.SharedASes,
	})
}

// IntentRequest is the front-end's JSON intent format.
type IntentRequest struct {
	ServerID         int      `json:"server_id"`
	Objective        string   `json:"objective,omitempty"`
	Profile          string   `json:"profile,omitempty"`
	MaxLatencyMs     float64  `json:"max_latency_ms,omitempty"`
	MaxLossPct       float64  `json:"max_loss_pct,omitempty"`
	MinBandwidthMbps float64  `json:"min_bandwidth_mbps,omitempty"`
	ExcludeISDs      []string `json:"exclude_isds,omitempty"`
	ExcludeASes      []string `json:"exclude_ases,omitempty"`
	ExcludeCountries []string `json:"exclude_countries,omitempty"`
	ExcludeOperators []string `json:"exclude_operators,omitempty"`
}

// IntentResponse carries the decision, verification and recommendations.
type IntentResponse struct {
	Decision        candidateJSON   `json:"decision"`
	Sequence        string          `json:"sequence"`
	Satisfied       bool            `json:"satisfied"`
	Violations      []string        `json:"violations,omitempty"`
	Unverifiable    []string        `json:"unverifiable,omitempty"`
	Recommendations []recommendJSON `json:"recommendations"`
}

func (s *Server) handleIntent(w http.ResponseWriter, r *http.Request) {
	var req IntentRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad intent: %w", err))
		return
	}
	if req.ServerID < 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("server_id required"))
		return
	}
	selReq := selection.Request{
		MaxLatencyMs:     req.MaxLatencyMs,
		MaxLossPct:       req.MaxLossPct,
		MinBandwidthBps:  req.MinBandwidthMbps * 1e6,
		ExcludeISDs:      req.ExcludeISDs,
		ExcludeASes:      req.ExcludeASes,
		ExcludeCountries: req.ExcludeCountries,
		ExcludeOperators: req.ExcludeOperators,
	}
	if req.Objective != "" {
		obj, err := selection.ParseObjective(req.Objective)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		selReq.Objective = obj
	}
	intent := Intent{ServerID: req.ServerID, Request: selReq}

	// Resolve the destination AS from the catalogue.
	dstIA, err := s.serverIA(req.ServerID)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}

	dec2, err := s.ctrl.Decide(r.Context(), dstIA, intent)
	if err != nil {
		s.writeError(w, http.StatusConflict, err)
		return
	}
	trace, err := s.tracer.Trace(dec2, 2)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The Path Tracer stores every observation for later verification.
	if _, err := s.tracer.Record(s.db, trace, dec2.Candidate.PathID); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	verdict := NewVerifier(s.explorer).Verify(intent, trace)

	weights := ProfileBrowsing
	if req.Profile != "" {
		switch req.Profile {
		case "voip":
			weights = ProfileVoIP
		case "streaming":
			weights = ProfileStreaming
		case "bulk":
			weights = ProfileBulk
		case "browsing":
			weights = ProfileBrowsing
		default:
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown profile %q", req.Profile))
			return
		}
	}
	recs, err := Recommend(r.Context(), s.engine, intent, weights, 3)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}

	resp := IntentResponse{
		Decision:  toCandidateJSON(dec2.Candidate),
		Sequence:  dec2.Path.Sequence(),
		Satisfied: verdict.Satisfied,
	}
	resp.Violations = verdict.Violations
	for _, ia := range verdict.Unverifiable {
		resp.Unverifiable = append(resp.Unverifiable, ia.String())
	}
	for _, rec := range recs {
		resp.Recommendations = append(resp.Recommendations, recommendJSON{
			PathID: rec.Candidate.PathID, Score: rec.Score, Reason: rec.Reason,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// serverCatalog is one immutable build of the id -> IA map, stamped with
// the availableServers generation it was decoded at.
type serverCatalog struct {
	gen  int64
	byID map[int]addr.IA
}

// serverIA resolves a server id to its destination AS. The decoded
// catalogue is cached and revalidated against the collection's generation
// counter, so the per-intent cost is one atomic load and a map probe
// instead of re-decoding availableServers. Concurrent rebuilds are
// harmless: each stores an equally-valid catalogue.
func (s *Server) serverIA(id int) (addr.IA, error) {
	col := s.db.Collection(measure.ColServers)
	cat := s.catalog.Load()
	if cat == nil || cat.gen != col.Generation() {
		// Stamp before decoding: a write landing mid-decode leaves the
		// stamp stale, forcing revalidation, never a stale map marked fresh.
		gen := col.Generation()
		servers, err := measure.Servers(s.db)
		if err != nil {
			return addr.IA{}, err
		}
		byID := make(map[int]addr.IA, len(servers))
		for _, srv := range servers {
			byID[srv.ID] = srv.Address.IA
		}
		cat = &serverCatalog{gen: gen, byID: byID}
		s.catalog.Store(cat)
	}
	ia, ok := cat.byID[id]
	if !ok {
		return addr.IA{}, fmt.Errorf("upin: no server with id %d", id)
	}
	return ia, nil
}

type candidateJSON struct {
	PathID       string   `json:"path_id"`
	Hops         int      `json:"hops"`
	ISDs         []string `json:"isds"`
	AvgLatencyMs float64  `json:"avg_latency_ms"`
	JitterMs     float64  `json:"jitter_ms"`
	AvgLossPct   float64  `json:"avg_loss_pct"`
	UpMbps       float64  `json:"up_mbps"`
	DownMbps     float64  `json:"down_mbps"`
	Samples      int      `json:"samples"`
	Countries    []string `json:"countries"`
}

type recommendJSON struct {
	PathID string  `json:"path_id"`
	Score  float64 `json:"score"`
	Reason string  `json:"reason"`
}

func toCandidateJSON(c selection.Candidate) candidateJSON {
	return candidateJSON{
		PathID: c.PathID, Hops: c.Hops, ISDs: c.ISDs,
		// JSON cannot carry +Inf (paths that never answered); -1 marks
		// "no data".
		AvgLatencyMs: finiteOr(c.AvgLatencyMs, -1),
		JitterMs:     finiteOr(c.JitterMs, -1),
		AvgLossPct:   finiteOr(c.AvgLossPct, -1),
		UpMbps:       finiteOr(c.UpBps/1e6, -1),
		DownMbps:     finiteOr(c.DownBps/1e6, -1),
		Samples:      c.Samples, Countries: c.Countries,
	}
}

func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

func candidatesJSON(cands []selection.Candidate) []candidateJSON {
	out := make([]candidateJSON, len(cands))
	for i, c := range cands {
		out[i] = toCandidateJSON(c)
	}
	return out
}

// bufPool recycles response-encoding buffers across requests.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v into a pooled buffer before touching the response.
// Encoding into the buffer first means an encode failure can still be
// reported as a clean 500 (the status line is not yet committed), and the
// hot endpoints reuse buffers instead of allocating per response. Errors
// the old implementation dropped are logged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status == http.StatusServiceUnavailable {
		s.unavailable.Add(1)
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.logger.Error("upin: encode response", "error", err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The status line is committed; a client that hung up mid-body is
		// all this can be. Keep the signal, nothing else to do.
		s.logger.Warn("upin: write response", "error", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
