package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/upin"
)

// Response bodies, decoded only as far as validation needs.
type candidateBody struct {
	PathID       string  `json:"path_id"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	Samples      int     `json:"samples"`
}

type pathSetBody struct {
	ServerID int             `json:"server_id"`
	K        int             `json:"k"`
	Paths    []candidateBody `json:"paths"`
}

type intentBody struct {
	Decision        candidateBody `json:"decision"`
	Sequence        string        `json:"sequence"`
	Recommendations []struct {
		PathID string `json:"path_id"`
	} `json:"recommendations"`
}

// intentCase is one pool entry: the request and what the oracle says the
// tier must answer.
type intentCase struct {
	req    upin.IntentRequest
	body   []byte
	status int    // 200, or 409 when no path satisfies the intent
	pathID string // the decision, when status is 200
}

// expectations is what the oracle computed at set-up. ids holds the
// path_id order of every GET the schedule can issue (nil on churn, where
// writes move the answer and only the shape and the sentinel are checked).
type expectations struct {
	ids     map[string][]string
	intents map[int][]intentCase // by destination
}

// oracle is a fresh, unsharded selection engine over the same database —
// the reference the tier's answers are compared with.
func oracle(e *env) *selection.Engine { return selection.New(e.db, e.topo) }

func idsOf(cands []selection.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.PathID
	}
	return out
}

// expectedIDs asks the oracle for the answer to one GET op.
func expectedIDs(ctx context.Context, eng *selection.Engine, o op) ([]string, error) {
	if o.kind == opPathset {
		set, err := eng.SelectSet(ctx, o.dest, selection.SetRequest{K: o.k})
		if err != nil {
			return nil, err
		}
		return idsOf(set.Paths), nil
	}
	cands, err := eng.Select(ctx, o.dest, selection.Request{})
	if err != nil {
		return nil, err
	}
	if len(cands) > topK {
		cands = cands[:topK]
	}
	return idsOf(cands), nil
}

// gate is the correctness gate run before every timed window: for every
// destination the tier's ?top=5 and pathset answers must equal the
// oracle's, path_id for path_id. It returns the expectations the window
// validates against, having put each through the window's own checks once.
func gate(ctx context.Context, e *env, t *tier, s spec) (*expectations, error) {
	eng := oracle(e)
	exp := &expectations{ids: map[string][]string{}}
	c := &fleetClient{id: "gate", t: t, exp: exp, start: time.Now()}
	for _, d := range e.dests {
		ops := []op{{kind: opPaths, dest: d}}
		for _, k := range s.pathsetKs {
			ops = append(ops, op{kind: opPathset, dest: d, k: k})
		}
		for _, o := range ops {
			want, err := expectedIDs(ctx, eng, o)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", o.target(), err)
			}
			exp.ids[o.target()] = want
			if c.request(ctx, o); c.w.firstErr != nil {
				return nil, fmt.Errorf("gate: %w", c.w.firstErr)
			}
		}
	}
	return exp, nil
}

var (
	objectives = []string{"", "latency", "bandwidth", "loss", "stable"}
	profiles   = []string{"", "voip", "streaming", "bulk", "browsing"}
)

// buildIntents draws each destination's intent pool — objective × profile
// × exclusions — and lets an oracle controller decide every entry, so the
// window knows which intents must be answered 200 (and with which path)
// and which 409. Exclusion values are drawn from what the destination's
// own candidates traverse; most leave an alternative, some leave none.
//
//lint:deterministic the intent pool is part of the seeded input
func buildIntents(ctx context.Context, e *env, seed int64) (map[int][]intentCase, error) {
	eng := oracle(e)
	ctrl := upin.NewController(e.daemon, eng, e.explorer)
	servers, err := measure.Servers(e.db)
	if err != nil {
		return nil, err
	}
	ia := map[int]measure.Server{}
	for _, s := range servers {
		ia[s.ID] = s
	}
	rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
	pool := map[int][]intentCase{}
	for _, d := range e.dests {
		cands, err := eng.Select(ctx, d, selection.Request{})
		if err != nil {
			return nil, err
		}
		self := ia[d].Address.IA
		for v := 0; v < intentVariants; v++ {
			req := upin.IntentRequest{
				ServerID:  d,
				Objective: objectives[rng.Intn(len(objectives))],
				Profile:   profiles[rng.Intn(len(profiles))],
			}
			if v == intentVariants-1 {
				// One variant per destination nothing can satisfy: every
				// path ends in the destination's own AS. Expected: 409.
				req.ExcludeASes = []string{self.String()}
			} else {
				drawExclusion(rng, &req, cands)
			}
			ic := intentCase{req: req, status: http.StatusOK}
			dec, err := ctrl.Decide(ctx, self, intentOf(req))
			switch {
			case err == nil:
				ic.pathID = dec.Candidate.PathID
			case v == intentVariants-1:
				ic.status = http.StatusConflict
			default:
				// The drawn exclusion left no path (it hit an AS every
				// candidate shares): fall back to the bare objective.
				ic.req.ExcludeASes, ic.req.ExcludeISDs, ic.req.ExcludeCountries = nil, nil, nil
				if dec, err = ctrl.Decide(ctx, self, intentOf(ic.req)); err != nil {
					return nil, fmt.Errorf("intent pool: destination %d: %w", d, err)
				}
				ic.pathID = dec.Candidate.PathID
			}
			if ic.body, err = json.Marshal(ic.req); err != nil {
				return nil, err
			}
			pool[d] = append(pool[d], ic)
		}
	}
	return pool, nil
}

// drawExclusion excludes — three times in four — an AS, an ISD or a
// country taken from a mid-path hop of a random candidate: that removes
// the candidate and whatever shares the hop.
func drawExclusion(rng *rand.Rand, req *upin.IntentRequest, cands []selection.Candidate) {
	c := cands[rng.Intn(len(cands))]
	hop := c.Sequence[len(c.Sequence)/2]
	switch rng.Intn(4) {
	case 0:
		req.ExcludeASes = []string{fmt.Sprintf("%d-%s", hop.ISD, hop.AS)}
	case 1:
		req.ExcludeISDs = []string{fmt.Sprintf("%d", hop.ISD)}
	case 2:
		if n := len(c.Countries); n > 0 {
			req.ExcludeCountries = []string{c.Countries[rng.Intn(n)]}
		}
	}
}

// intentOf converts the JSON intent the way upin.Server.handleIntent does.
func intentOf(req upin.IntentRequest) upin.Intent {
	sel := selection.Request{
		MaxLatencyMs:     req.MaxLatencyMs,
		MaxLossPct:       req.MaxLossPct,
		MinBandwidthBps:  req.MinBandwidthMbps * 1e6,
		ExcludeISDs:      req.ExcludeISDs,
		ExcludeASes:      req.ExcludeASes,
		ExcludeCountries: req.ExcludeCountries,
		ExcludeOperators: req.ExcludeOperators,
	}
	if req.Objective != "" {
		// The pool only holds spellings ParseObjective accepts.
		sel.Objective, _ = selection.ParseObjective(req.Objective)
	}
	return upin.Intent{ServerID: req.ServerID, Request: sel}
}

// profileWeights mirrors handleIntent's profile switch.
func profileWeights(name string) upin.Weights {
	switch name {
	case "voip":
		return upin.ProfileVoIP
	case "streaming":
		return upin.ProfileStreaming
	case "bulk":
		return upin.ProfileBulk
	}
	return upin.ProfileBrowsing
}

// latencyOrInf undoes the front-end's "-1 means no data" encoding.
func latencyOrInf(ms float64) float64 {
	if ms < 0 {
		return math.Inf(1)
	}
	return ms
}

// checkPaths validates a /api/paths body: decodes, 1..top entries, best
// first under the default (latency) objective, and — when the oracle's
// answer is known — exactly its path ids.
func checkPaths(raw []byte, want []string) ([]candidateBody, error) {
	var cands []candidateBody
	if err := json.Unmarshal(raw, &cands); err != nil {
		return nil, fmt.Errorf("undecodable paths body: %w", err)
	}
	if len(cands) == 0 || len(cands) > topK {
		return nil, fmt.Errorf("%d candidates, want 1..%d", len(cands), topK)
	}
	for i := 1; i < len(cands); i++ {
		if latencyOrInf(cands[i].AvgLatencyMs) < latencyOrInf(cands[i-1].AvgLatencyMs) {
			return nil, fmt.Errorf("candidates not best-first at %d: %v after %v",
				i, cands[i].AvgLatencyMs, cands[i-1].AvgLatencyMs)
		}
	}
	if want != nil {
		for i, c := range cands {
			if i >= len(want) || c.PathID != want[i] {
				return nil, fmt.Errorf("path ids differ from the oracle's %v at %d: %s", want, i, c.PathID)
			}
		}
	}
	return cands, nil
}

// checkPathset validates a /api/pathset body: k distinct paths for the
// destination asked about.
func checkPathset(raw []byte, o op, want []string) error {
	var set pathSetBody
	if err := json.Unmarshal(raw, &set); err != nil {
		return fmt.Errorf("undecodable pathset body: %w", err)
	}
	// A destination with fewer than k measured paths yields them all; the
	// oracle's answer, when known, says how many that is.
	n := o.k
	if want != nil {
		n = len(want)
	}
	if set.ServerID != o.dest || set.K != len(set.Paths) || len(set.Paths) != n {
		return fmt.Errorf("pathset server %d k %d with %d paths, want server %d with %d",
			set.ServerID, set.K, len(set.Paths), o.dest, n)
	}
	for i, c := range set.Paths {
		for _, prev := range set.Paths[:i] {
			if prev.PathID == c.PathID {
				return fmt.Errorf("pathset repeats %s", c.PathID)
			}
		}
		if want != nil && (i >= len(want) || c.PathID != want[i]) {
			return fmt.Errorf("pathset ids differ from the oracle's %v at %d: %s", want, i, c.PathID)
		}
	}
	return nil
}

func checkIntent(raw []byte, ic intentCase) error {
	if ic.status != http.StatusOK {
		return nil // the status was the whole expectation
	}
	var body intentBody
	if err := json.Unmarshal(raw, &body); err != nil {
		return fmt.Errorf("undecodable intent body: %w", err)
	}
	if body.Decision.PathID != ic.pathID || body.Sequence == "" {
		return fmt.Errorf("intent decided %q, oracle %q", body.Decision.PathID, ic.pathID)
	}
	if n := len(body.Recommendations); n < 1 || n > 3 {
		return fmt.Errorf("%d recommendations, want 1..3", n)
	}
	return nil
}

// window is what one timed window measured.
type window struct {
	elapsed   time.Duration
	lat       [3]latencies // by opKind: paths, pathset, intent
	fresh     latencies    // write cells: insert start to first fresh answer
	cells     int
	stale     int // cells whose answer was an old cache hit (cluster.stale_cells)
	expired   int // of those, still old at the deadline
	backfills int
	probes    int // freshness probe requests (not in lat, not in ok)
	respBytes []float64
	firstErr  error
}

func (w *window) attempted() int { return w.ok() + w.failed() }

func (w *window) ok() int {
	n := len(w.fresh.us)
	for i := range w.lat {
		n += len(w.lat[i].us)
	}
	return n
}

func (w *window) failed() int {
	n := w.fresh.failed
	for i := range w.lat {
		n += w.lat[i].failed
	}
	return n
}

func (w *window) merge(o *window) {
	for i := range w.lat {
		w.lat[i].merge(&o.lat[i])
	}
	w.fresh.merge(&o.fresh)
	w.cells += o.cells
	w.stale += o.stale
	w.expired += o.expired
	w.backfills += o.backfills
	w.probes += o.probes
	w.respBytes = append(w.respBytes, o.respBytes...)
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// staleDeadline bounds the freshness probe: a cell still served stale
// after this long is recorded at the deadline.
const staleDeadline = 100 * time.Millisecond

// fleetClient is one closed-loop client: request, validate, record,
// repeat with zero think time.
type fleetClient struct {
	id    string
	t     *tier
	exp   *expectations
	start time.Time   // when the window began
	cells *cellWriter // client 0 of churn only
	// pending are stale cells waiting for a later write to heal them.
	pending []pendingCell
	w       window
	logf    func(format string, args ...any)
}

// do issues one request and returns status, body and the X-Cache header.
func (c *fleetClient) do(ctx context.Context, method, target string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.t.baseURL+target, rd)
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("X-Client-ID", c.id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.t.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully read; the connection is reusable
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, raw, resp.Header.Get("X-Cache"), nil
}

// request runs one read op and validates the answer. A failed operation
// is counted and contributes no latency sample.
func (c *fleetClient) request(ctx context.Context, o op) {
	lat := &c.w.lat[o.kind]
	var (
		status int
		raw    []byte
		err    error
		want   = http.StatusOK
	)
	t0 := time.Now()
	switch o.kind {
	case opIntent:
		ic := c.exp.intents[o.dest][o.intent]
		want = ic.status
		status, raw, _, err = c.do(ctx, http.MethodPost, "/api/intent", ic.body)
		if err == nil && status == want {
			err = checkIntent(raw, ic)
		}
	case opPathset:
		status, raw, _, err = c.do(ctx, http.MethodGet, o.target(), nil)
		if err == nil && status == want {
			err = checkPathset(raw, o, c.exp.ids[o.target()])
		}
	default:
		status, raw, _, err = c.do(ctx, http.MethodGet, o.target(), nil)
		if err == nil && status == want {
			_, err = checkPaths(raw, c.exp.ids[o.target()])
		}
	}
	d := time.Since(t0)
	if err == nil && status != want {
		err = fmt.Errorf("status %d, want %d: %.200s", status, want, raw)
	}
	if err != nil {
		lat.fail()
		if c.w.firstErr == nil {
			c.w.firstErr = fmt.Errorf("%s %s: %w", o.kind, o.target(), err)
		}
		return
	}
	lat.ok(d, time.Since(c.start))
	if o.kind == opPaths {
		c.w.respBytes = append(c.w.respBytes, float64(len(raw)))
	}
}

// cellWriter produces churn's write cells. Every cell carries exactly one
// document for the destination's sentinel path (path 0, kept rank 1 by
// its 1 ms latency), so the expected `samples` of the top answer rises by
// one per cell and freshness is readable from an ordinary response body.
type cellWriter struct {
	stats    *docdb.Collection
	pathsPer int
	rng      *rand.Rand
	seq      int
	hiMs     int64       // rising timestamps: the fold path
	loMs     int64       // falling timestamps below the seeded history: the rebuild path
	expect   map[int]int // destination -> samples the sentinel must show
}

// sentinelLatencyMs is well under the synthetic catalogue's 10 ms floor.
const sentinelLatencyMs = 1.0

// newCellWriter stamps forward cells upwards from hiMs and backfills
// downwards from loMs; SeedSynthetic's clock lies between the two.
func newCellWriter(e *env, sc scale, seed, hiMs, loMs int64) *cellWriter {
	return &cellWriter{
		stats: e.db.Collection(measure.ColStats), pathsPer: sc.pathsA,
		rng:  rand.New(rand.NewSource(seed ^ 0x7f4a7c15)),
		hiMs: hiMs, loMs: loMs, expect: map[int]int{},
	}
}

// prepareSentinels rewrites each destination's path 0 history to 1 ms so
// that path is rank 1 under the default objective, and returns the writer.
func prepareSentinels(e *env, sc scale, seed int64) *cellWriter {
	cw := newCellWriter(e, sc, seed, 1_800_000_000_000, 1_600_000_000_000)
	for _, d := range e.dests {
		cw.expect[d] = cw.stats.Update(docdb.Eq(measure.FPathID, measure.PathID(d, 0)),
			docdb.Document{measure.FAvgLatency: sentinelLatencyMs})
	}
	return cw
}

// next builds the following cell for a destination. Every backfillEvery-th
// cell is stamped below the high-water mark.
func (cw *cellWriter) next(dest int) (docs []docdb.Document, backfill bool) {
	cw.seq++
	backfill = cw.seq%backfillEvery == 0
	return cw.build(dest, backfill), backfill
}

// build makes one cell's documents: rising timestamps (the fold path), or
// falling ones below the seeded history (the rebuild path).
func (cw *cellWriter) build(dest int, backfill bool) []docdb.Document {
	docs := make([]docdb.Document, 0, cellSize)
	for i := 0; i < cellSize; i++ {
		var ts int64
		if backfill {
			cw.loMs--
			ts = cw.loMs
		} else {
			cw.hiMs++
			ts = cw.hiMs
		}
		idx, lat := 0, sentinelLatencyMs
		if i > 0 {
			idx, lat = 1+cw.rng.Intn(cw.pathsPer-1), 10+cw.rng.Float64()*150
		}
		id := measure.PathID(dest, idx)
		docs = append(docs, docdb.Document{
			"_id":               fmt.Sprintf("%s@%d", id, ts),
			measure.FPathID:     id,
			measure.FServerID:   dest,
			measure.FTimestamp:  ts,
			measure.FLoss:       float64(cw.rng.Intn(200)) / 10,
			measure.FAvgLatency: lat,
			measure.FMdev:       cw.rng.Float64() * 5,
			measure.FBwUpMTU:    1e6 + cw.rng.Float64()*1e8,
			measure.FBwDownMTU:  1e6 + cw.rng.Float64()*1e8,
		})
	}
	cw.expect[dest]++
	return docs
}

// pendingCell is a write cell whose answer was still old when its probe
// gave up re-reading a cache hit; it is re-probed after each later write
// until the tier serves it fresh or the deadline passes.
type pendingCell struct {
	dest, want int
	t0         time.Time
}

// probeOnce asks for the destination's top paths and reports the
// sentinel's `samples` — freshness is read from the response body alone.
func (c *fleetClient) probeOnce(ctx context.Context, dest int) (samples int, xcache string, err error) {
	probe := op{kind: opPaths, dest: dest}
	status, raw, xcache, err := c.do(ctx, http.MethodGet, probe.target(), nil)
	c.w.probes++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, raw)
	}
	var cands []candidateBody
	if err == nil {
		cands, err = checkPaths(raw, nil)
	}
	if err == nil && cands[0].PathID != measure.PathID(dest, 0) {
		err = fmt.Errorf("top path %s, want the sentinel %s", cands[0].PathID, measure.PathID(dest, 0))
	}
	if err != nil {
		return 0, xcache, fmt.Errorf("probe %s: %w", probe.target(), err)
	}
	return cands[0].Samples, xcache, nil
}

// cell writes one cell straight into docdb and probes back-to-back until
// the tier's answer reflects it: top element the sentinel, `samples`
// equal to the count inserted so far.
//
// An old answer served as a cache hit cannot change before the next write
// (the response cache replaces entries only on a generation change), and
// this client is the only writer: re-reading it for 100 ms would measure
// nothing and take one client out of the fleet for the duration. Such a
// cell is reported as stale, parked, and probed again after each later
// cell — so its recorded freshness is the real delay until the tier
// served it, which is the delay to the next write. Without the header
// the probe runs on to the deadline.
func (c *fleetClient) cell(ctx context.Context, dest int) {
	docs, backfill := c.cells.next(dest)
	want := c.cells.expect[dest]
	c.w.cells++
	if backfill {
		c.w.backfills++
	}
	t0 := time.Now()
	if err := c.cells.stats.InsertMany(docs); err != nil {
		c.cellFailed(fmt.Errorf("cell insert: %w", err))
		return
	}
	for {
		got, xcache, err := c.probeOnce(ctx, dest)
		if err != nil {
			c.cellFailed(err)
			return
		}
		d := time.Since(t0)
		if got == want {
			c.w.fresh.ok(d, time.Since(c.start))
			break
		}
		if d >= staleDeadline {
			c.expired(dest, want, got, xcache)
			break
		}
		if xcache == "hit" {
			// Not a failure: the answer is well-formed, just old. Reported,
			// never suppressed (see README "The stale-cache finding").
			c.w.stale++
			c.logf("stale cell: dest=%d expected samples=%d served samples=%d X-Cache=%q after %v",
				dest, want, got, xcache, d.Round(time.Microsecond))
			c.recheck(ctx)
			c.pending = append(c.pending, pendingCell{dest, want, t0})
			return
		}
	}
	c.recheck(ctx)
}

// recheck probes every parked cell once. A later cell for the same
// destination raises the served count past want, hence >=.
func (c *fleetClient) recheck(ctx context.Context) {
	kept := c.pending[:0]
	for _, p := range c.pending {
		got, xcache, err := c.probeOnce(ctx, p.dest)
		if err != nil {
			c.cellFailed(err)
			continue
		}
		switch d := time.Since(p.t0); {
		case got >= p.want:
			c.w.fresh.ok(d, time.Since(c.start))
		case d >= staleDeadline:
			c.expired(p.dest, p.want, got, xcache)
		default:
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

// expired records a cell the tier did not serve fresh within the deadline.
func (c *fleetClient) expired(dest, want, got int, xcache string) {
	c.w.expired++
	c.w.fresh.ok(staleDeadline, time.Since(c.start))
	c.logf("stale cell at the %v deadline: dest=%d expected samples=%d served samples=%d X-Cache=%q",
		staleDeadline, dest, want, got, xcache)
}

func (c *fleetClient) cellFailed(err error) {
	c.w.fresh.fail()
	if c.w.firstErr == nil {
		c.w.firstErr = err
	}
}

// run is the closed loop until the deadline.
func (c *fleetClient) run(ctx context.Context, ops []op, deadline time.Time) {
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		o := ops[i%len(ops)]
		if o.kind == opCell {
			c.cell(ctx, o.dest)
			continue
		}
		c.request(ctx, o)
	}
	// No later write will come: whatever is still parked stays stale.
	for _, p := range c.pending {
		c.expired(p.dest, p.want, p.want-1, "hit")
	}
	c.pending = nil
}

// runFleet drives the tier with one closed-loop client per schedule row
// for the given duration and returns the merged window.
func runFleet(ctx context.Context, t *tier, exp *expectations, cells *cellWriter,
	sched [][]op, dur time.Duration, logf func(string, ...any)) *window {
	fleet := make([]*fleetClient, len(sched))
	for i := range sched {
		fleet[i] = &fleetClient{id: fmt.Sprintf("c%03d", i), t: t, exp: exp, logf: logf}
	}
	fleet[0].cells = cells
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range fleet {
		c.start = start
	}
	var wg sync.WaitGroup
	for i, c := range fleet {
		wg.Add(1)
		go func(c *fleetClient, ops []op) {
			defer wg.Done()
			c.run(ctx, ops, deadline)
		}(c, sched[i])
	}
	wg.Wait()
	total := &window{elapsed: time.Since(start)}
	for _, c := range fleet {
		total.merge(&c.w)
	}
	return total
}

// nth is the i-th operation of the schedule read round-robin across the
// clients' rows; a negative i counts back from the rows' tails.
func nth(sched [][]op, i int) op {
	if i < 0 {
		j := -1 - i
		row := sched[j%len(sched)]
		return row[len(row)-1-(j/len(sched))%len(row)]
	}
	row := sched[i%len(sched)]
	return row[(i/len(sched))%len(row)]
}

// warm issues a fixed number of read requests (round-robin over the
// clients' schedules from their tails, single-threaded) so caches fill and
// lazy set-up finishes before timing. Part of set-up, and sized in
// requests so that set-up time reflects the program's speed.
func warm(ctx context.Context, t *tier, exp *expectations, sched [][]op, n int) error {
	c := &fleetClient{id: "warm", t: t, exp: exp, start: time.Now(), logf: func(string, ...any) {}}
	for i := 0; i < n; i++ {
		o := nth(sched, -1-i)
		if o.kind == opCell {
			continue
		}
		c.request(ctx, o)
	}
	return c.w.firstErr
}
