package upin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

func TestServerPathSet(t *testing.T) {
	srv, f := testServer(t, 70)
	rec, body := get(t, srv, fmt.Sprintf("/api/pathset?server=%d&k=2", f.serverID))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var set pathSetJSON
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatal(err)
	}
	if set.ServerID != f.serverID {
		t.Errorf("server_id %d, want %d", set.ServerID, f.serverID)
	}
	if set.K != 2 || len(set.Paths) != 2 {
		t.Fatalf("k=%d with %d paths, want 2", set.K, len(set.Paths))
	}
	if set.Paths[0].PathID == set.Paths[1].PathID {
		t.Error("duplicate path in the set")
	}
	if set.Disjointness < 0 || set.Disjointness > 1 {
		t.Errorf("disjointness %v out of [0,1]", set.Disjointness)
	}

	// The set's first path is the plain best path.
	recB, bodyB := get(t, srv, fmt.Sprintf("/api/paths?server=%d&top=1", f.serverID))
	if recB.Code != http.StatusOK {
		t.Fatalf("paths status %d", recB.Code)
	}
	var best []candidateJSON
	if err := json.Unmarshal(bodyB, &best); err != nil {
		t.Fatal(err)
	}
	if len(best) != 1 || best[0].PathID != set.Paths[0].PathID {
		t.Errorf("set head %q != best path %q", set.Paths[0].PathID, best[0].PathID)
	}
}

func TestServerPathSetDefaultsAndObjective(t *testing.T) {
	srv, f := testServer(t, 71)
	// k omitted -> the engine default of 2.
	rec, body := get(t, srv, fmt.Sprintf("/api/pathset?server=%d", f.serverID))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var set pathSetJSON
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatal(err)
	}
	if set.K != 2 {
		t.Errorf("default k=%d, want 2", set.K)
	}
	// A valid objective is accepted; a bogus one is a 400.
	if rec, body := get(t, srv, fmt.Sprintf("/api/pathset?server=%d&objective=bandwidth", f.serverID)); rec.Code != http.StatusOK {
		t.Errorf("objective=bandwidth -> %d: %s", rec.Code, body)
	}
	if rec, _ := get(t, srv, fmt.Sprintf("/api/pathset?server=%d&objective=warp", f.serverID)); rec.Code != http.StatusBadRequest {
		t.Errorf("objective=warp -> %d, want 400", rec.Code)
	}
}

func TestServerPathSetErrors(t *testing.T) {
	srv, f := testServer(t, 72)
	cases := []struct {
		path     string
		wantCode int
	}{
		{"/api/pathset", http.StatusBadRequest},                                  // no server
		{"/api/pathset?server=abc", http.StatusBadRequest},                       // non-numeric server
		{"/api/pathset?server=0", http.StatusBadRequest},                         // server below 1
		{"/api/pathset?server=999", http.StatusNotFound},                         // unknown server
		{fmt.Sprintf("/api/pathset?server=%d&k=0", f.serverID), 400},             // k below 1
		{fmt.Sprintf("/api/pathset?server=%d&k=-3", f.serverID), 400},            // negative k
		{fmt.Sprintf("/api/pathset?server=%d&k=abc", f.serverID), 400},           // non-numeric k
		{fmt.Sprintf("/api/pathset?server=%d&k=1.5", f.serverID), 400},           // fractional k
		{fmt.Sprintf("/api/pathset?server=%d&k=999", f.serverID), http.StatusOK}, // k > pool clamps
	}
	for _, c := range cases {
		rec, body := get(t, srv, c.path)
		if rec.Code != c.wantCode {
			t.Errorf("%s -> %d, want %d (%s)", c.path, rec.Code, c.wantCode, body)
		}
	}
	// The clamped request returns every candidate exactly once.
	_, body := get(t, srv, fmt.Sprintf("/api/pathset?server=%d&k=999", f.serverID))
	var set pathSetJSON
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range set.Paths {
		if seen[p.PathID] {
			t.Errorf("path %s appears twice", p.PathID)
		}
		seen[p.PathID] = true
	}
	if set.K != len(set.Paths) || set.K < 2 {
		t.Errorf("clamped set k=%d paths=%d", set.K, len(set.Paths))
	}
}

// TestServerPathsTopParam pins the ?top= contract on /api/paths: valid K
// truncates, K larger than the pool is a no-op, and zero / negative /
// non-numeric values are rejected rather than silently defaulted.
func TestServerPathsTopParam(t *testing.T) {
	srv, f := testServer(t, 73)
	all := func() int {
		rec, body := get(t, srv, fmt.Sprintf("/api/paths?server=%d", f.serverID))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
		var cands []candidateJSON
		if err := json.Unmarshal(body, &cands); err != nil {
			t.Fatal(err)
		}
		return len(cands)
	}()
	if all < 2 {
		t.Fatalf("fixture offers only %d candidates", all)
	}
	cases := []struct {
		top      string
		wantCode int
		wantLen  int // checked only on 200
	}{
		{"1", http.StatusOK, 1},
		{fmt.Sprint(all), http.StatusOK, all},
		{fmt.Sprint(all + 50), http.StatusOK, all}, // top > len(cands): serve all
		{"0", http.StatusBadRequest, 0},
		{"-2", http.StatusBadRequest, 0},
		{"abc", http.StatusBadRequest, 0},
		{"1.5", http.StatusBadRequest, 0},
		{"", http.StatusOK, all}, // explicit empty value = unset
	}
	for _, c := range cases {
		rec, body := get(t, srv, fmt.Sprintf("/api/paths?server=%d&top=%s", f.serverID, c.top))
		if rec.Code != c.wantCode {
			t.Errorf("top=%q -> %d, want %d (%s)", c.top, rec.Code, c.wantCode, body)
			continue
		}
		if c.wantCode != http.StatusOK {
			continue
		}
		var cands []candidateJSON
		if err := json.Unmarshal(body, &cands); err != nil {
			t.Fatal(err)
		}
		if len(cands) != c.wantLen {
			t.Errorf("top=%q served %d candidates, want %d", c.top, len(cands), c.wantLen)
		}
	}
}
