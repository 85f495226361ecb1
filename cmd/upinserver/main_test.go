package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

func TestBuildHandlerServesIntent(t *testing.T) {
	handler, cleanup, err := buildHandler(context.Background(),
		serveConfig{seed: 1, domain: "16,17,19", measureList: "1"})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	ts := httptest.NewServer(handler)
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health %d", resp.StatusCode)
	}

	// Intent over the boot-time measurements.
	body := strings.NewReader(`{"server_id":1,"profile":"browsing"}`)
	resp2, err := http.Post(ts.URL+"/api/intent", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("intent %d", resp2.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["satisfied"] != true {
		t.Errorf("intent response: %v", out)
	}
}

func TestBuildHandlerWithJournal(t *testing.T) {
	db := filepath.Join(t.TempDir(), "stats.db")
	_, cleanup, err := buildHandler(context.Background(),
		serveConfig{seed: 1, dbPath: db, domain: "17"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildHandlerErrors(t *testing.T) {
	if _, _, err := buildHandler(context.Background(),
		serveConfig{seed: 1, domain: "17", measureList: "zz"}); err == nil {
		t.Error("bad measure list accepted")
	}
	if _, _, err := buildHandler(context.Background(),
		serveConfig{seed: 1, domain: "17", dbPath: filepath.Join(t.TempDir(), "no", "dir", "x.db")}); err == nil {
		t.Error("bad db path accepted")
	}
}

// TestBuildHandlerShardedTier: tier flags swap in the cluster router —
// /api/stats aggregates the shards and the rate limiter answers 429.
func TestBuildHandlerShardedTier(t *testing.T) {
	handler, cleanup, err := buildHandler(context.Background(), serveConfig{
		seed: 1, domain: "16,17,19", measureList: "1",
		shards: 4, cacheEntries: 64, rate: 0.001, burst: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	client := ts.Client()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/stats", nil)
	req.Header.Set("X-Client-ID", "t")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Shards   int   `json:"shards"`
		PerShard []any `json:"per_shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Errorf("tier stats: %+v", st)
	}

	// Paths route through the tier; the fourth request in the burst window
	// is rate limited.
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/paths?server=1", nil)
		req.Header.Set("X-Client-ID", "t")
		r2, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("paths %d: status %d", i, r2.StatusCode)
		}
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/api/paths?server=1", nil)
	req.Header.Set("X-Client-ID", "t")
	r3, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429 after burst", r3.StatusCode)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}); code == 0 {
		t.Error("bad flag accepted")
	}
}
