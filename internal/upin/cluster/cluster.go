// Package cluster is the horizontally sharded UPIN serving tier: N upin
// front-end replicas behind a rendezvous-hash router keyed on the
// destination server id. Every shard shares the measurement database but
// owns a disjoint subset of destinations, so each shard's selection
// snapshot holds only its share of the candidate paths (refresh cost
// divides across shards) and its response cache sees every request for
// the destinations it owns (cache affinity is the point of consistent
// routing). The router adds the tier-level protections the single server
// does not have: per-client token-bucket rate limiting and admission
// control with a bounded accept queue feeding the drain/503 path.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
)

// Config sizes the tier. The zero value of any field falls back to the
// documented default.
type Config struct {
	// Shards is the number of upin replicas (default 1).
	Shards int
	// MaxInflight bounds concurrently admitted requests (0 = unlimited).
	MaxInflight int
	// QueueDepth bounds requests waiting for an admission slot beyond
	// MaxInflight; arrivals past the queue are shed with 503 immediately
	// (default 0 = no waiting, shed as soon as slots are full).
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before it is shed with 503. 0 means wait indefinitely, which turns
	// the deadline problem over to the client; the load harness always
	// sets it.
	QueueTimeout time.Duration
	// RatePerSec and Burst configure the per-client token bucket
	// (0 = rate limiting disabled). Clients are identified by the
	// X-Client-ID header, falling back to the remote address.
	RatePerSec float64
	Burst      float64
	// CacheEntries bounds each shard's response cache for GET /api/paths
	// and /api/pathset (0 = caching disabled). An entry is valid while its
	// destination's version — the engine refresh that last changed that
	// destination — stands: a stats write ages out only the answers for the
	// destinations it measured.
	CacheEntries int
}

// intentPeekBytes bounds how much of a POST /api/intent body the router
// reads to learn the destination. Intents are sub-kilobyte; 64 KiB of
// headroom keeps the router from buffering an abusive body it will never
// parse.
const intentPeekBytes = 64 << 10

// shard is one replica: an owner-filtered engine, its front-end, and the
// response cache that fronts the replica's GET /api/paths and
// /api/pathset traffic.
type shard struct {
	id     int
	srv    *upin.Server
	engine *selection.Engine
	cache  *respCache
}

// Router is the tier entry point; it implements http.Handler.
type Router struct {
	cfg    Config
	shards []*shard
	gate   *gate
	limit  *limiter

	requests    atomic.Int64 // everything that reached ServeHTTP
	rateLimited atomic.Int64 // 429s
	shed        atomic.Int64 // admission 503s (queue full or slot timeout)
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	closed      atomic.Bool
}

// New builds the tier: cfg.Shards owner-filtered selection engines over
// the shared database, one upin front-end each, and the router. The
// daemon, network and explorer are shared — they are read-only at serving
// time.
func New(db *docdb.DB, daemon *sciond.Daemon, net *simnet.Network,
	explorer *upin.DomainExplorer, topo *topology.Topology, cfg Config) *Router {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	r := &Router{
		cfg:   cfg,
		gate:  newGate(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueTimeout),
		limit: newLimiter(cfg.RatePerSec, cfg.Burst),
	}
	for i := 0; i < cfg.Shards; i++ {
		i := i
		var engine *selection.Engine
		if cfg.Shards == 1 {
			engine = selection.New(db, topo)
		} else {
			engine = selection.New(db, topo, selection.WithServerOwner(func(id int) bool {
				return rendezvous(id, cfg.Shards) == i
			}))
		}
		r.shards = append(r.shards, &shard{
			id:     i,
			srv:    upin.NewServer(db, daemon, net, engine, explorer),
			engine: engine,
			cache:  newRespCache(cfg.CacheEntries),
		})
	}
	return r
}

// rendezvous picks the shard with the highest FNV-64a weight for the
// destination (highest-random-weight hashing): adding or removing one
// shard only moves the destinations whose maximum changed, and every
// router instance agrees on the placement with no coordination.
func rendezvous(dest, shards int) int {
	if shards <= 1 {
		return 0
	}
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(int64(dest)))
	best, bestW := 0, uint64(0)
	for s := 0; s < shards; s++ {
		binary.LittleEndian.PutUint64(b[8:], uint64(s))
		h := fnv.New64a()
		_, _ = h.Write(b[:]) // fnv.Write never fails
		if w := h.Sum64(); s == 0 || w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// ShardFor exposes the placement function: which shard owns this
// destination. The load generator uses it to label per-shard traffic.
func (r *Router) ShardFor(dest int) int { return rendezvous(dest, len(r.shards)) }

// Shards returns the replica count.
func (r *Router) Shards() int { return len(r.shards) }

// ServeHTTP routes one request: tier checks (closed, rate limit,
// admission) first, then cluster-level endpoints, then destination
// routing into a shard.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)
	if r.closed.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, "cluster: tier is shut down")
		return
	}
	if !r.limit.allow(clientID(req)) {
		r.rateLimited.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusTooManyRequests, "cluster: client rate limit exceeded")
		return
	}
	release, ok := r.gate.acquire()
	if !ok {
		r.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, "cluster: admission queue full")
		return
	}
	defer release()

	switch req.URL.Path {
	case "/api/health":
		r.handleHealth(w)
		return
	case "/api/stats":
		writeJSON(w, http.StatusOK, r.Stats())
		return
	}

	// Catalogue-wide endpoints (/api/servers, /api/nodes) carry no
	// destination (0): they read shared state, any replica answers alike.
	dest := r.destination(req)
	r.serveShard(r.shards[rendezvous(dest, len(r.shards))], dest, w, req)
}

// serveShard serves GET /api/paths and /api/pathset for a destination the
// shard knows through its response cache, everything else straight through
// the replica.
func (r *Router) serveShard(sh *shard, dest int, w http.ResponseWriter, req *http.Request) {
	if sh.cache != nil && dest > 0 && req.Method == http.MethodGet &&
		(req.URL.Path == "/api/paths" || req.URL.Path == "/api/pathset") {
		// Asked before the lookup, and it refreshes a stale snapshot first:
		// the version covers every write that returned before this request
		// arrived, and whatever the replica computes afterwards comes from
		// the same or a later snapshot. A body may so be newer than the
		// version it is filed under, never older; a hit is as fresh as a miss.
		if version, ok := sh.engine.Version(req.Context(), dest); ok {
			r.serveCached(sh, version, w, req)
			return
		}
	}
	sh.srv.ServeHTTP(w, req)
}

// serveCached answers from the shard's cache when it holds the request
// under the destination's current version, and otherwise files what the
// replica computes under it.
func (r *Router) serveCached(sh *shard, version int64, w http.ResponseWriter, req *http.Request) {
	// The path is part of the key: /api/paths?server=1 and
	// /api/pathset?server=1 share a query string but not an answer.
	key := req.URL.Path + "?" + req.URL.RawQuery
	if body, ok := sh.cache.get(key, version); ok {
		r.cacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body) // client went away; nothing to do
		return
	}
	r.cacheMisses.Add(1)
	cap := &captureWriter{header: make(http.Header), status: http.StatusOK}
	sh.srv.ServeHTTP(cap, req)
	if cap.status == http.StatusOK {
		sh.cache.put(key, entry{version: version, body: cap.buf.Bytes()})
	}
	copyHeader(w.Header(), cap.header)
	w.WriteHeader(cap.status)
	_, _ = w.Write(cap.buf.Bytes()) // client went away; nothing to do
}

// destination extracts the server id a request targets, 0 when it names
// none. For POST /api/intent the body is read and restored, so the shard
// sees the request unchanged.
func (r *Router) destination(req *http.Request) int {
	switch {
	case req.URL.Path == "/api/paths" || req.URL.Path == "/api/pathset":
		if id, err := strconv.Atoi(req.URL.Query().Get("server")); err == nil && id > 0 {
			return id
		}
	case req.URL.Path == "/api/traces":
		// Path ids are "<serverID>_<index>" (measure.PathID).
		pid := req.URL.Query().Get("path")
		if i := strings.IndexByte(pid, '_'); i > 0 {
			if id, err := strconv.Atoi(pid[:i]); err == nil && id > 0 {
				return id
			}
		}
	case req.URL.Path == "/api/intent" && req.Method == http.MethodPost:
		// Peek a bounded prefix — an intent is a small JSON object, so a
		// body whose server_id is not within the first 64 KiB is not one the
		// shard would accept either. The unread tail stays on req.Body and
		// the peeked prefix is stitched back in front, so the shard reads
		// the request byte-for-byte unchanged.
		peek, err := io.ReadAll(io.LimitReader(req.Body, intentPeekBytes))
		req.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(peek), req.Body), req.Body}
		var probe struct {
			ServerID int `json:"server_id"`
		}
		if err == nil && json.Unmarshal(peek, &probe) == nil && probe.ServerID > 0 {
			return probe.ServerID
		}
	}
	return 0
}

// Stats is the tier-level counter reading: router totals plus every
// shard's own ServingStats.
type Stats struct {
	Shards           int                 `json:"shards"`
	RequestsTotal    int64               `json:"requests_total"`
	RateLimitedTotal int64               `json:"rate_limited_total"`
	ShedTotal        int64               `json:"shed_total"`
	CacheHits        int64               `json:"cache_hits"`
	CacheMisses      int64               `json:"cache_misses"`
	QueuedNow        int64               `json:"queued_now"`
	UnavailableTotal int64               `json:"unavailable_total"`
	PerShard         []upin.ServingStats `json:"per_shard"`
}

// Stats aggregates the tier. UnavailableTotal folds the router's own
// shedding together with 503s the shard servers wrote (e.g. post-Close),
// which is the number the overload benchmarks report.
func (r *Router) Stats() Stats {
	st := Stats{
		Shards:           len(r.shards),
		RequestsTotal:    r.requests.Load(),
		RateLimitedTotal: r.rateLimited.Load(),
		ShedTotal:        r.shed.Load(),
		CacheHits:        r.cacheHits.Load(),
		CacheMisses:      r.cacheMisses.Load(),
		QueuedNow:        r.gate.queuedNow(),
	}
	st.UnavailableTotal = st.ShedTotal
	for _, sh := range r.shards {
		s := sh.srv.Stats()
		st.UnavailableTotal += s.UnavailableTotal
		st.PerShard = append(st.PerShard, s)
	}
	return st
}

func (r *Router) handleHealth(w http.ResponseWriter) {
	type shardHealth struct {
		Shard       int   `json:"shard"`
		InFlight    int64 `json:"requests_in_flight"`
		SnapshotGen int64 `json:"snapshot_generation"`
		SnapshotLag int64 `json:"snapshot_generation_lag"`
	}
	doc := struct {
		Status   string        `json:"status"`
		Shards   int           `json:"shards"`
		PerShard []shardHealth `json:"per_shard"`
	}{Status: "ok", Shards: len(r.shards)}
	for _, sh := range r.shards {
		s := sh.srv.Stats()
		doc.PerShard = append(doc.PerShard, shardHealth{
			Shard: sh.id, InFlight: s.RequestsInFlight, SnapshotGen: s.SnapshotGen, SnapshotLag: s.GenerationLag,
		})
	}
	writeJSON(w, http.StatusOK, doc)
}

// Close drains the tier: new arrivals are refused first, then every
// replica drains its in-flight requests (upin.Server.Close blocks on
// them). The database stays open — its owner closes it after Close
// returns, same ordering as the single-server shutdown.
func (r *Router) Close() error {
	r.closed.Store(true)
	for _, sh := range r.shards {
		if err := sh.srv.Close(); err != nil {
			return err
		}
	}
	return nil
}

// clientID identifies the caller for rate limiting: the X-Client-ID
// header when the client sets one, the peer address otherwise.
func clientID(req *http.Request) string {
	if id := req.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host := req.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i > 0 {
		host = host[:i]
	}
	return host
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf) // client went away; nothing to do
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

func init() {
	// measure.PathID must keep the "<serverID>_" prefix the traces router
	// depends on; fail loudly at start-up if the format drifts.
	if !strings.HasPrefix(measure.PathID(7, 3), "7_") {
		panic(fmt.Sprintf("cluster: measure.PathID format changed: %q", measure.PathID(7, 3)))
	}
}
