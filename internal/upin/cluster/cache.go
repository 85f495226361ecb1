package cluster

import (
	"bytes"
	"net/http"
	"sync"
)

// entry is one cached 200 response and the destination version (see
// selection.Engine.Version) it was filed under.
type entry struct {
	version int64
	body    []byte
}

// respCache is one shard's response cache for GET /api/paths and
// /api/pathset. Entries are keyed by URL path plus raw query and are valid
// while the version they were filed under is still the destination's: a
// write for destination D ages out D's entries only, each replaced in place
// by the next request for its key. There is no table-wide invalidation.
type respCache struct {
	max int // immutable; 0 disables the cache

	mu      sync.Mutex
	entries map[string]entry // guarded by mu
}

func newRespCache(max int) *respCache {
	if max <= 0 {
		return nil
	}
	return &respCache{max: max, entries: make(map[string]entry)}
}

func (c *respCache) get(key string, version int64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e.body, ok && e.version == version
}

func (c *respCache) put(key string, e entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, held := c.entries[key]; !held && len(c.entries) >= c.max {
		// Full, and this key is new: start over. Refreshing a key the table
		// already holds never costs the other entries.
		c.entries = make(map[string]entry)
	}
	c.entries[key] = e
}

// captureWriter buffers a shard's response so the router can cache it
// before forwarding. Only bodies the shard finished writing reach the
// cache (the router checks the status).
type captureWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(status int) { c.status = status }

func (c *captureWriter) Write(p []byte) (int, error) { return c.buf.Write(p) }
