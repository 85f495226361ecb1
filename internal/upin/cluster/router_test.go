package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRendezvousSingleShard(t *testing.T) {
	// One replica owns everything, including degenerate destinations; the
	// shards<=1 short-circuit must never index out of range.
	for _, dest := range []int{-5, 0, 1, 7, 1 << 30} {
		if s := rendezvous(dest, 1); s != 0 {
			t.Errorf("rendezvous(%d, 1) = %d, want 0", dest, s)
		}
		if s := rendezvous(dest, 0); s != 0 {
			t.Errorf("rendezvous(%d, 0) = %d, want 0", dest, s)
		}
	}
}

// TestDestinationIntentBodies pins the intent peek: an empty body and a
// body larger than the peek bound are both unroutable (dest 0), and the
// shard still receives the body byte-for-byte.
func TestDestinationIntentBodies(t *testing.T) {
	r := &Router{}
	post := func(body string) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/api/intent", strings.NewReader(body))
	}

	// Empty body: no destination, restored body still empty.
	req := post("")
	if id := r.destination(req); id != 0 {
		t.Errorf("empty body routed to %d", id)
	}
	if rest, _ := io.ReadAll(req.Body); len(rest) != 0 {
		t.Errorf("empty body restored as %d bytes", len(rest))
	}

	// Oversized body: the router reads only intentPeekBytes, yet the shard
	// must see every byte.
	big := `{"server_id": 3, "pad": "` + strings.Repeat("x", intentPeekBytes) + `"}`
	req = post(big)
	if id := r.destination(req); id != 0 {
		// The JSON is cut mid-pad at the peek bound, so it cannot parse.
		t.Errorf("oversized body routed to %d", id)
	}
	rest, err := io.ReadAll(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != big {
		t.Errorf("oversized body not restored: got %d bytes, want %d", len(rest), len(big))
	}

	// A normal intent routes and restores.
	req = post(`{"server_id": 7}`)
	if id := r.destination(req); id != 7 {
		t.Errorf("intent routed to %d, want 7", id)
	}
	if rest, _ := io.ReadAll(req.Body); string(rest) != `{"server_id": 7}` {
		t.Errorf("intent body not restored: %q", rest)
	}
}

func TestDestinationPathSet(t *testing.T) {
	r := &Router{}
	req := httptest.NewRequest(http.MethodGet, "/api/pathset?server=5&k=3", nil)
	if id := r.destination(req); id != 5 {
		t.Errorf("pathset routed to %d, want 5", id)
	}
	req = httptest.NewRequest(http.MethodGet, "/api/pathset?server=abc", nil)
	if id := r.destination(req); id != 0 {
		t.Errorf("non-numeric server routed to %d", id)
	}
}

// TestLimiterTableReset: the client table resets once it outgrows
// maxClients instead of growing without bound, and clients keep being
// admitted across the reset (the reset errs toward admitting).
func TestLimiterTableReset(t *testing.T) {
	l := newLimiter(1, 1)
	clock := time.Unix(1_700_000_000, 0)
	l.now = func() time.Time { return clock }

	// Exhaust one client, then flood with distinct clients past the bound.
	if !l.allow("victim") {
		t.Fatal("first request rejected")
	}
	if l.allow("victim") {
		t.Fatal("burst=1 granted a second token")
	}
	for i := 0; i <= maxClients; i++ {
		if !l.allow(fmt.Sprintf("client-%d", i)) {
			t.Fatalf("fresh client %d rejected", i)
		}
	}
	if n := len(l.buckets); n > maxClients+1 {
		t.Fatalf("bucket table grew to %d entries, bound is %d", n, maxClients)
	}
	// The reset forgot the victim's empty bucket: it gets a fresh burst.
	if !l.allow("victim") {
		t.Error("client throttled across a table reset")
	}
}

// TestPathSetThroughCluster: /api/pathset routes on ?server=, is served
// from the generation-validated cache on repeats, and does not collide
// with /api/paths entries sharing the same query string.
func TestPathSetThroughCluster(t *testing.T) {
	f := setup(t, 76, 2)
	tier := f.router(Config{Shards: 2, CacheEntries: 64})
	id := f.serverIDs[0]
	setPath := fmt.Sprintf("/api/pathset?server=%d", id)
	pathsPath := fmt.Sprintf("/api/paths?server=%d", id)

	// Prime /api/paths first: if the cache keyed on RawQuery alone, the
	// pathset request below would be served this body.
	pathsBody := get(t, tier, pathsPath, "")
	if pathsBody.Code != http.StatusOK {
		t.Fatalf("paths status %d", pathsBody.Code)
	}
	first := get(t, tier, setPath, "")
	if first.Code != http.StatusOK {
		t.Fatalf("pathset status %d: %s", first.Code, first.Body.String())
	}
	if first.Header().Get("X-Cache") == "hit" {
		t.Fatal("first pathset GET served from the paths cache entry")
	}
	if bytes.Equal(first.Body.Bytes(), pathsBody.Body.Bytes()) {
		t.Fatal("pathset answer identical to paths answer")
	}
	second := get(t, tier, setPath, "")
	if second.Header().Get("X-Cache") != "hit" {
		t.Error("repeat pathset GET not served from cache")
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached pathset body differs")
	}

	// Sharded and single-replica answers agree.
	single := f.router(Config{Shards: 1})
	if a := get(t, single, setPath, ""); !bytes.Equal(a.Body.Bytes(), first.Body.Bytes()) {
		t.Error("sharded pathset answer differs from single replica")
	}
}

// TestPathsTopThroughCluster: through a sharded tier with the response
// cache on, the body of ?top=K — computed on the miss, replayed on the hit
// — is byte-equal to the first K rows of the top-less body.
func TestPathsTopThroughCluster(t *testing.T) {
	f := setup(t, 77, 3)
	tier := f.router(Config{Shards: 4, CacheEntries: 64})
	for _, id := range f.serverIDs {
		full := get(t, tier, fmt.Sprintf("/api/paths?server=%d", id), "")
		if full.Code != http.StatusOK {
			t.Fatalf("server %d: status %d", id, full.Code)
		}
		var rows []json.RawMessage
		if err := json.Unmarshal(full.Body.Bytes(), &rows); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5, len(rows), len(rows) + 3} {
			want, err := json.Marshal(rows[:min(k, len(rows))])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n') // the encoder terminates a response
			path := fmt.Sprintf("/api/paths?server=%d&top=%d", id, k)
			for _, cache := range []string{"miss", "hit"} {
				rec := get(t, tier, path, "")
				if got := rec.Header().Get("X-Cache"); (got == "hit") != (cache == "hit") {
					t.Errorf("%s: X-Cache %q on the %s request", path, got, cache)
				}
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s (%s): body is not the first %d rows of the full body", path, cache, k)
				}
			}
		}
	}
}
