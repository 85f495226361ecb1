package upin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T, seed int64) (*Server, *fixture) {
	t.Helper()
	f := setup(t, seed)
	srv := NewServer(f.db, f.daemon, f.net, f.engine, f.explorer)
	return srv, f
}

func get(t *testing.T, srv *Server, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func post(t *testing.T, srv *Server, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestServerHealth(t *testing.T) {
	srv, _ := testServer(t, 60)
	rec, body := get(t, srv, "/api/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["local_ia"] != "17-ffaa:1:1" {
		t.Errorf("health: %v", h)
	}
	if h["stats_stored"].(float64) == 0 {
		t.Error("no stats visible in health")
	}
}

func TestServerServersAndNodes(t *testing.T) {
	srv, _ := testServer(t, 61)
	rec, body := get(t, srv, "/api/servers")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var servers []map[string]any
	if err := json.Unmarshal(body, &servers); err != nil {
		t.Fatal(err)
	}
	if len(servers) != 21 {
		t.Errorf("%d servers", len(servers))
	}

	rec2, body2 := get(t, srv, "/api/nodes")
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d", rec2.Code)
	}
	var nodes []map[string]any
	if err := json.Unmarshal(body2, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 36 {
		t.Errorf("%d nodes", len(nodes))
	}
	inDomain := 0
	for _, n := range nodes {
		if n["in_domain"].(bool) {
			inDomain++
		}
	}
	if inDomain == 0 || inDomain == len(nodes) {
		t.Errorf("domain split %d/%d implausible", inDomain, len(nodes))
	}
}

func TestServerPaths(t *testing.T) {
	srv, f := testServer(t, 62)
	rec, body := get(t, srv, "/api/paths?server=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var cands []map[string]any
	if err := json.Unmarshal(body, &cands); err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0]["avg_latency_ms"].(float64) <= 0 {
		t.Errorf("candidate without latency: %v", cands[0])
	}
	_ = f

	// Bad requests.
	if rec, _ := get(t, srv, "/api/paths"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing server param -> %d", rec.Code)
	}
	if rec, _ := get(t, srv, "/api/paths?server=999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown server -> %d", rec.Code)
	}
}

func TestServerIntentFullPipeline(t *testing.T) {
	srv, f := testServer(t, 63)
	rec, body := post(t, srv, "/api/intent", IntentRequest{
		ServerID:         f.serverID,
		Objective:        "latency",
		Profile:          "voip",
		ExcludeCountries: []string{"United States"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp IntentResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Satisfied {
		t.Errorf("intent not satisfied: %v", resp.Violations)
	}
	if resp.Decision.PathID == "" || resp.Sequence == "" {
		t.Errorf("decision incomplete: %+v", resp.Decision)
	}
	if len(resp.Recommendations) == 0 {
		t.Error("no recommendations")
	}
	for _, c := range resp.Decision.Countries {
		if c == "United States" {
			t.Error("decision crosses the excluded country")
		}
	}
}

func TestServerIntentErrors(t *testing.T) {
	srv, f := testServer(t, 64)
	cases := []struct {
		body     any
		wantCode int
	}{
		{IntentRequest{}, http.StatusBadRequest},                                         // no server id
		{IntentRequest{ServerID: 999}, http.StatusNotFound},                              // unknown server
		{IntentRequest{ServerID: f.serverID, Objective: "warp"}, http.StatusBadRequest},  // bad objective
		{IntentRequest{ServerID: f.serverID, Profile: "warp"}, http.StatusBadRequest},    // bad profile
		{IntentRequest{ServerID: f.serverID, MaxLatencyMs: 0.0001}, http.StatusConflict}, // unsatisfiable
		{map[string]any{"server_id": 1, "bogus": true}, http.StatusBadRequest},           // unknown field
	}
	for i, c := range cases {
		rec, body := post(t, srv, "/api/intent", c.body)
		if rec.Code != c.wantCode {
			t.Errorf("case %d: status %d, want %d (%s)", i, rec.Code, c.wantCode, body)
		}
		if !strings.Contains(string(body), "error") {
			t.Errorf("case %d: missing error body: %s", i, body)
		}
	}
	// Malformed JSON.
	req := httptest.NewRequest(http.MethodPost, "/api/intent", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON -> %d", rec.Code)
	}
}

func TestServerTracesEndpoint(t *testing.T) {
	srv, f := testServer(t, 66)
	// Intents record traces; fetch them back.
	rec, body := post(t, srv, "/api/intent", IntentRequest{ServerID: f.serverID})
	if rec.Code != http.StatusOK {
		t.Fatalf("intent %d: %s", rec.Code, body)
	}
	var resp IntentResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	rec2, body2 := get(t, srv, "/api/traces?path="+resp.Decision.PathID)
	if rec2.Code != http.StatusOK {
		t.Fatalf("traces %d: %s", rec2.Code, body2)
	}
	var traces []map[string]any
	if err := json.Unmarshal(body2, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	if rec3, _ := get(t, srv, "/api/traces"); rec3.Code != http.StatusBadRequest {
		t.Errorf("missing path param -> %d", rec3.Code)
	}
}

func TestServerMethodRouting(t *testing.T) {
	srv, _ := testServer(t, 65)
	// POST to a GET route 404s under Go 1.22 method patterns.
	rec, _ := post(t, srv, "/api/servers", map[string]any{})
	if rec.Code == http.StatusOK {
		t.Errorf("POST /api/servers -> %d", rec.Code)
	}
	rec2, _ := get(t, srv, "/api/unknown")
	if rec2.Code != http.StatusNotFound {
		t.Errorf("unknown route -> %d", rec2.Code)
	}
}

// firstK re-encodes the first k elements of a JSON array body the way
// writeJSON encodes a response (compact, newline-terminated).
func firstK(t *testing.T, body []byte, k int) []byte {
	t.Helper()
	var rows []json.RawMessage
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rows[:min(k, len(rows))])
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestServerPathsTopIsPrefix: ?top=K is served by a bounded selection, and
// its body is byte-equal to the first K rows of the unbounded response.
func TestServerPathsTopIsPrefix(t *testing.T) {
	srv, f := testServer(t, 63)
	rec, full := get(t, srv, fmt.Sprintf("/api/paths?server=%d", f.serverID))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, full)
	}
	n := bytes.Count(firstK(t, full, 1<<30), []byte(`"path_id"`))
	if n < 3 {
		t.Fatalf("fixture serves %d candidates, want several", n)
	}
	for _, k := range []int{1, 2, 5, n - 1, n, n + 3} {
		rec, body := get(t, srv, fmt.Sprintf("/api/paths?server=%d&top=%d", f.serverID, k))
		if rec.Code != http.StatusOK {
			t.Fatalf("top=%d: status %d: %s", k, rec.Code, body)
		}
		if want := firstK(t, full, k); !bytes.Equal(body, want) {
			t.Errorf("top=%d body is not the first %d rows of the full body:\n%s\n%s", k, k, body, want)
		}
	}
	for _, bad := range []string{"0", "-2", "abc", "1.5"} {
		rec, body := get(t, srv, fmt.Sprintf("/api/paths?server=%d&top=%s", f.serverID, bad))
		want := fmt.Sprintf("{\"error\":\"invalid ?top=\\\"%s\\\": want a positive integer\"}\n", bad)
		if rec.Code != http.StatusBadRequest || string(body) != want {
			t.Errorf("top=%s -> %d %s, want 400 %s", bad, rec.Code, body, want)
		}
	}
}
