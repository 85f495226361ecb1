package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/load"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
)

// The history checker: what docs/SERVING.md's staleness contract promises
// of the tier, checked over a seeded history instead of on examples. One
// writer mutates the database step by step and files, after every step, an
// unsharded oracle server's answer to every request the readers can send.
// Readers hammer the 4-shard cached tier meanwhile and note, per request,
// the generation pair read before sending, the number of steps begun when
// the answer arrived, status, body and X-Cache. Afterwards every answer
// must be the oracle's at some step inside that window — never one from
// before the pair read at send, which is what a stale cache hit is.

const histPathsPer = 10

// synthetic seeds a small SeedSynthetic catalogue (nDests destinations,
// histPathsPer paths each) in the default world.
func synthetic(t testing.TB, seed int64, nDests int) *fixture {
	t.Helper()
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		t.Fatal(err)
	}
	db := docdb.MustOpen()
	ids, err := load.SeedSynthetic(db, topo, nDests, histPathsPer, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, net: net, daemon: daemon, db: db,
		explorer: upin.NewDomainExplorer(topo, []addr.ISD{16, 17, 19}), serverIDs: ids}
}

// histStep is the database after one writer step: its generation pair and
// the oracle's answer (status + body, hashed) to every key.
type histStep struct {
	pathsGen, statsGen int64
	answers            map[string]uint64
	bodies             map[string]string // for failure messages
}

// observation is one reader request.
type observation struct {
	key                  string
	sendPaths, sendStats int64 // generation pair read before sending
	hi                   int   // writer steps begun when the answer arrived
	status               int
	answer               uint64
	hit                  bool
}

func hashAnswer(status int, body []byte) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", status)
	_, _ = h.Write(body) // fnv.Write never fails
	return h.Sum64()
}

var samplesField = regexp.MustCompile(`"samples":(\d+)`)

// samplesOf sums a body's "samples" fields: the number a stats write moves.
func samplesOf(body string) (n int) {
	for _, m := range samplesField.FindAllStringSubmatch(body, -1) {
		v, _ := strconv.Atoi(m[1])
		n += v
	}
	return n
}

// histWriter is the one mutator of a history run.
type histWriter struct {
	f      *fixture
	rng    *rand.Rand
	stats  *docdb.Collection
	paths  *docdb.Collection
	oracle *upin.Server
	keys   []string
	live   []string // stats _ids still stored
	seq    int
	hiMs   int64
	loMs   int64

	started atomic.Int64 // steps begun (readers read it on receive)
	steps   []histStep   // steps[0] is the seeded state; read once the run is over
}

func newHistWriter(t testing.TB, f *fixture, seed int64) *histWriter {
	w := &histWriter{
		f: f, rng: rand.New(rand.NewSource(seed)),
		stats: f.db.Collection(measure.ColStats), paths: f.db.Collection(measure.ColPaths),
		oracle: upin.NewServer(f.db, f.daemon, f.net, selection.New(f.db, f.topo), f.explorer),
		hiMs:   1_800_000_000_000, loMs: 1_600_000_000_000,
	}
	for _, d := range f.serverIDs {
		w.keys = append(w.keys,
			fmt.Sprintf("/api/paths?server=%d", d),
			fmt.Sprintf("/api/paths?server=%d&top=3", d),
			fmt.Sprintf("/api/pathset?server=%d&k=2", d))
	}
	// A destination nobody collected paths for: 404 from tier and oracle.
	w.keys = append(w.keys, "/api/paths?server=9999")
	w.stats.ForEach(docdb.Query{}, func(d docdb.Document) bool {
		w.live = append(w.live, d.ID())
		return true
	})
	w.record(t)
	return w
}

// record files the oracle's answers for the state the database is in.
func (w *histWriter) record(t testing.TB) {
	st := histStep{
		pathsGen: w.paths.Generation(), statsGen: w.stats.Generation(),
		answers: make(map[string]uint64, len(w.keys)), bodies: make(map[string]string, len(w.keys)),
	}
	for _, key := range w.keys {
		rec := httptest.NewRecorder()
		w.oracle.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, key, nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
			t.Fatalf("oracle answered %s with %d: %s", key, rec.Code, rec.Body)
		}
		st.answers[key] = hashAnswer(rec.Code, rec.Body.Bytes())
		st.bodies[key] = rec.Body.String()
	}
	w.steps = append(w.steps, st)
}

func (w *histWriter) statsDoc(dest int, ts int64) docdb.Document {
	w.seq++
	id := measure.PathID(dest, w.rng.Intn(histPathsPer))
	return docdb.Document{
		"_id":           fmt.Sprintf("%s@%d#h%d", id, ts, w.seq),
		measure.FPathID: id, measure.FServerID: dest, measure.FTimestamp: ts,
		measure.FLoss: float64(w.rng.Intn(200)) / 10, measure.FAvgLatency: 10 + w.rng.Float64()*150,
		measure.FMdev: w.rng.Float64() * 5, measure.FBwUpMTU: 1e6 + w.rng.Float64()*1e8,
		measure.FBwDownMTU: 1e6 + w.rng.Float64()*1e8,
	}
}

// step applies one seeded mutation — mostly measurement cells for a random
// destination (every fourth stamped below the seeded history), beside stats
// updates and deletes and rewrites of a path document — then files the
// oracle's answers.
func (w *histWriter) step(t testing.TB) {
	w.started.Add(1)
	dest := w.f.serverIDs[w.rng.Intn(len(w.f.serverIDs))]
	switch k := w.rng.Intn(10); {
	case k == 0 && len(w.live) > 0:
		w.stats.Update(docdb.Eq("_id", w.live[w.rng.Intn(len(w.live))]),
			docdb.Document{measure.FAvgLatency: 5 + w.rng.Float64()*100})
	case k == 1 && len(w.live) > 0:
		i := w.rng.Intn(len(w.live))
		w.stats.Delete(docdb.Eq("_id", w.live[i]))
		w.live = append(w.live[:i], w.live[i+1:]...)
	case k == 2:
		w.paths.Update(docdb.Eq("_id", measure.PathID(dest, w.rng.Intn(histPathsPer))),
			docdb.Document{measure.FHops: 2 + w.rng.Intn(9)})
	default:
		cell := make([]docdb.Document, 1+w.rng.Intn(3))
		for i := range cell {
			if w.seq%4 == 3 {
				w.loMs--
				cell[i] = w.statsDoc(dest, w.loMs)
			} else {
				w.hiMs++
				cell[i] = w.statsDoc(dest, w.hiMs)
			}
			w.live = append(w.live, cell[i].ID())
		}
		if err := w.stats.InsertMany(cell); err != nil {
			t.Fatal(err)
		}
	}
	w.record(t)
}

// check validates one observation against the finished history and returns
// a description of what is wrong with it, or "".
func (w *histWriter) check(o observation) string {
	if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
		if o.hit {
			return fmt.Sprintf("%s: status %d served with X-Cache: hit", o.key, o.status)
		}
		return ""
	}
	if o.hit && o.status != http.StatusOK {
		return fmt.Sprintf("%s: status %d served with X-Cache: hit", o.key, o.status)
	}
	lo := 0
	for i := len(w.steps) - 1; i > 0; i-- {
		if w.steps[i].pathsGen <= o.sendPaths && w.steps[i].statsGen <= o.sendStats {
			lo = i
			break
		}
	}
	for j := lo; j <= o.hi; j++ {
		if w.steps[j].answers[o.key] == o.answer {
			return ""
		}
	}
	for j := lo - 1; j >= 0; j-- {
		if w.steps[j].answers[o.key] == o.answer {
			return fmt.Sprintf("STALE %s (X-Cache hit=%v): step %d's answer (%d samples) to a request sent after step %d (%d samples) had completed",
				o.key, o.hit, j, samplesOf(w.steps[j].bodies[o.key]), lo, samplesOf(w.steps[lo].bodies[o.key]))
		}
	}
	return fmt.Sprintf("%s (X-Cache hit=%v, status %d): the answer is the oracle's at no step; window [%d, %d]",
		o.key, o.hit, o.status, lo, o.hi)
}

// TestTierHistory runs the checker over two tiers: a cache that holds every
// key, and one smaller than a shard's key set, so the table overflows and
// restarts throughout — an overflow may cost hits, never a wrong body. One
// reader is rate-limited to a crawl and the writer now and then takes every
// admission slot, so 429s and 503s are in the history too: they must never
// come from the cache, and (every 200 being checked) never enter it.
func TestTierHistory(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 60
	}
	for _, tc := range []struct {
		name  string
		cache int
		seed  int64
	}{{"cache=256", 256, 1}, {"cache=4", 4, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			f := synthetic(t, tc.seed, 8)
			const readers = 4
			tier := f.router(Config{Shards: 4, CacheEntries: tc.cache,
				MaxInflight: readers, RatePerSec: 200, Burst: 20})
			w := newHistWriter(t, f, tc.seed)

			stop := make(chan struct{})
			obs := make([][]observation, readers)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(tc.seed<<8 + int64(g)))
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						o := observation{key: w.keys[rng.Intn(len(w.keys))]}
						req := httptest.NewRequest(http.MethodGet, o.key, nil)
						// Reader 0 is one greedy client; the others never reuse an id.
						req.Header.Set("X-Client-ID", "greedy")
						if g > 0 {
							req.Header.Set("X-Client-ID", fmt.Sprintf("r%d-%d", g, n))
						}
						rec := httptest.NewRecorder()
						o.sendPaths, o.sendStats = w.paths.Generation(), w.stats.Generation()
						tier.ServeHTTP(rec, req)
						o.hi = int(w.started.Load())
						o.status, o.answer = rec.Code, hashAnswer(rec.Code, rec.Body.Bytes())
						o.hit = rec.Header().Get("X-Cache") == "hit"
						obs[g] = append(obs[g], o)
					}
				}(g)
			}
			for i := 0; i < steps; i++ {
				w.step(t)
				if i%50 == 25 { // take every slot until somebody has been shed
					shed := tier.Stats().ShedTotal
					var release []func()
					for len(release) < readers {
						if rel, ok := tier.gate.acquire(); ok {
							release = append(release, rel)
						}
					}
					for dl := time.Now().Add(5 * time.Second); tier.Stats().ShedTotal == shed && time.Now().Before(dl); {
						time.Sleep(100 * time.Microsecond)
					}
					for _, rel := range release {
						rel()
					}
				}
			}
			close(stop)
			wg.Wait()

			var total, hits, wrong, wrongHits int
			byStatus := map[int]int{}
			var first string
			for _, list := range obs {
				for _, o := range list {
					total++
					byStatus[o.status]++
					if o.hit {
						hits++
					}
					if msg := w.check(o); msg != "" {
						wrong++
						if o.hit {
							wrongHits++
						}
						if first == "" || (o.hit && !strings.Contains(first, "hit=true")) {
							first = msg
						}
					}
				}
			}
			t.Logf("%d steps, %d requests %v, %d cache hits", steps, total, byStatus, hits)
			if wrong > 0 {
				t.Fatalf("%d of %d answers outside their window, %d of them cache hits; e.g. %s",
					wrong, total, wrongHits, first)
			}
			if byStatus[http.StatusOK] < 10*steps || hits == 0 ||
				byStatus[http.StatusTooManyRequests] == 0 || byStatus[http.StatusServiceUnavailable] == 0 ||
				byStatus[http.StatusNotFound] == 0 {
				t.Fatalf("history too thin to mean anything: %v, %d hits", byStatus, hits)
			}
		})
	}
}

// TestCacheHitSurvivesForeignWrite pins per-destination invalidation: a
// stats write for destination D leaves a cached answer for D′ — owned by the
// same shard — a hit, while D's own entry is recomputed and reflects it.
func TestCacheHitSurvivesForeignWrite(t *testing.T) {
	f := synthetic(t, 3, 8)
	tier := f.router(Config{Shards: 4, CacheEntries: 64})
	var d, other int // two destinations of one shard; 8 over 4 shards must collide
	for i, a := range f.serverIDs {
		for _, b := range f.serverIDs[i+1:] {
			if d == 0 && tier.ShardFor(a) == tier.ShardFor(b) {
				d, other = a, b
			}
		}
	}
	keyD, keyOther := fmt.Sprintf("/api/paths?server=%d", d), fmt.Sprintf("/api/pathset?server=%d&k=2", other)
	before := map[string][]byte{}
	for _, key := range []string{keyD, keyOther} {
		if rec := get(t, tier, key, ""); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "" {
			t.Fatalf("%s: first request: status %d, X-Cache %q", key, rec.Code, rec.Header().Get("X-Cache"))
		}
		rec := get(t, tier, key, "")
		if rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: second request not a hit", key)
		}
		before[key] = rec.Body.Bytes()
	}

	w := newHistWriter(t, f, 3)
	if err := w.stats.InsertMany([]docdb.Document{w.statsDoc(d, w.hiMs+1), w.statsDoc(d, w.loMs-1)}); err != nil {
		t.Fatal(err)
	}
	rec := get(t, tier, keyOther, "")
	if rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), before[keyOther]) {
		t.Errorf("a write for destination %d cost destination %d its cached answer (X-Cache %q)",
			d, other, rec.Header().Get("X-Cache"))
	}
	rec = get(t, tier, keyD, "")
	if rec.Header().Get("X-Cache") == "hit" || bytes.Equal(rec.Body.Bytes(), before[keyD]) {
		t.Errorf("destination %d answered from the cache (X-Cache %q) after a write for it", d, rec.Header().Get("X-Cache"))
	}
	if rec = get(t, tier, keyD, ""); rec.Header().Get("X-Cache") != "hit" {
		t.Error("the recomputed answer was not cached")
	}
}

// TestRespCacheOverwriteKeepsTable: refreshing a key the full table already
// holds replaces it in place; only a new key restarts the table.
func TestRespCacheOverwriteKeepsTable(t *testing.T) {
	c := newRespCache(2)
	c.put("a", entry{version: 1, body: []byte("a1")})
	c.put("b", entry{version: 1, body: []byte("b1")})
	c.put("a", entry{version: 2, body: []byte("a2")})
	if body, ok := c.get("b", 1); !ok || string(body) != "b1" {
		t.Errorf("overwriting a held key dropped another entry: %q %v", body, ok)
	}
	if body, ok := c.get("a", 2); !ok || string(body) != "a2" {
		t.Errorf("a = %q %v after overwrite", body, ok)
	}
	if _, ok := c.get("a", 1); ok {
		t.Error("entry served under a version it was not filed under")
	}
	c.put("c", entry{version: 1, body: []byte("c1")})
	if _, ok := c.get("b", 1); ok {
		t.Error("a third key in a table of two did not restart it")
	}
	if body, ok := c.get("c", 1); !ok || string(body) != "c1" {
		t.Errorf("c = %q %v", body, ok)
	}
}
