package upin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestServerStats: /api/stats mirrors the Stats() counters, which advance
// with traffic and count 503s written after Close.
func TestServerStats(t *testing.T) {
	srv, f := testServer(t, 63)

	rec, body := get(t, srv, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var st ServingStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.RequestsTotal != 1 {
		t.Errorf("requests_total = %d after first request, want 1", st.RequestsTotal)
	}
	if st.UnavailableTotal != 0 {
		t.Errorf("unavailable_total = %d before shutdown, want 0", st.UnavailableTotal)
	}

	// Traffic advances the counters and warms the snapshot.
	for i := 0; i < 3; i++ {
		if rec, body := get(t, srv, fmt.Sprintf("/api/paths?server=%d", f.serverID)); rec.Code != http.StatusOK {
			t.Fatalf("paths status %d: %s", rec.Code, body)
		}
	}
	got := srv.Stats()
	if got.RequestsTotal != 4 {
		t.Errorf("requests_total = %d, want 4", got.RequestsTotal)
	}
	if got.Rebuilds != 1 {
		t.Errorf("snapshot_rebuilds = %d, want 1", got.Rebuilds)
	}
	if got.SnapshotPaths == 0 || got.SnapshotGen == 0 {
		t.Errorf("snapshot fields unset: %+v", got)
	}
	if got.GenerationLag != 0 {
		t.Errorf("snapshot_generation_lag = %d right after a request, want 0", got.GenerationLag)
	}
	if got.RequestsInFlight != 0 {
		t.Errorf("requests_in_flight = %d between requests, want 0", got.RequestsInFlight)
	}

	// 503s after Close are counted.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, _ := get(t, srv, "/api/stats"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d, want 503", rec.Code)
	}
	if got := srv.Stats(); got.UnavailableTotal != 1 {
		t.Errorf("unavailable_total = %d after one refused request, want 1", got.UnavailableTotal)
	}
}

// TestServerHealthInFlight: /api/health reports the request observing it.
func TestServerHealthInFlight(t *testing.T) {
	srv, _ := testServer(t, 64)
	_, body := get(t, srv, "/api/health")
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["requests_in_flight"].(float64) != 1 {
		t.Errorf("requests_in_flight = %v inside a handler, want 1", h["requests_in_flight"])
	}
}

// TestServerPathsTop: ?top=K truncates the ranked candidate list without
// reordering it.
func TestServerPathsTop(t *testing.T) {
	srv, _ := testServer(t, 65)
	_, full := get(t, srv, "/api/paths?server=1")
	var all []map[string]any
	if err := json.Unmarshal(full, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skipf("fixture served only %d candidates", len(all))
	}

	rec, body := get(t, srv, "/api/paths?server=1&top=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var top []map[string]any
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 {
		t.Fatalf("top=1 returned %d candidates", len(top))
	}
	if top[0]["path_id"] != all[0]["path_id"] {
		t.Errorf("top=1 returned %v, full ranking leads with %v", top[0]["path_id"], all[0]["path_id"])
	}

	// top beyond the candidate count returns everything.
	_, body2 := get(t, srv, "/api/paths?server=1&top=9999")
	var wide []map[string]any
	if err := json.Unmarshal(body2, &wide); err != nil {
		t.Fatal(err)
	}
	if len(wide) != len(all) {
		t.Errorf("top=9999 returned %d, want all %d", len(wide), len(all))
	}

	if rec, _ := get(t, srv, "/api/paths?server=1&top=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("top=0 -> %d, want 400", rec.Code)
	}
	if rec, _ := get(t, srv, "/api/paths?server=1&top=-3"); rec.Code != http.StatusBadRequest {
		t.Errorf("top=-3 -> %d, want 400", rec.Code)
	}
}
