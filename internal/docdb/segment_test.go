package docdb

// Unit tests for the segment log's wire layer (wal.go) and file layer
// (segment.go): codec round-trips, shard-name escaping, Open's refusals,
// torn-tail replay bounds, crash-truncation bounds and the group committer.
// The behavioural contract lives in conformance_test.go; these tests pin
// the binary format and the directory layout themselves.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSegValueCodecRoundTrip(t *testing.T) {
	cases := []struct {
		in   any
		want any // nil means: expect in unchanged
	}{
		{in: nil},
		{in: true},
		{in: false},
		{in: 3.25},
		{in: int(7), want: int64(7)},
		{in: int64(-1 << 40)},
		{in: "path 2_3 → up"},
		{in: ""},
		{in: []string{"a", "b", ""}},
		{in: []any{int64(1), "two", 3.5, nil, true}},
		{in: Document{"x": int64(1), "nested": Document{"y": "z"}}},
		{in: map[string]any{"k": "v"}, want: Document{"k": "v"}},
		// JSON fallback for types the codec has no tag for.
		{in: uint8(200), want: float64(200)},
	}
	for i, tc := range cases {
		buf, err := appendSegValue(nil, tc.in, 0)
		if err != nil {
			t.Fatalf("case %d (%T): encode: %v", i, tc.in, err)
		}
		got, rest, err := readSegValue(buf, 0)
		if err != nil {
			t.Fatalf("case %d (%T): decode: %v", i, tc.in, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d (%T): %d trailing bytes", i, tc.in, len(rest))
		}
		want := tc.want
		if want == nil {
			want = tc.in
		}
		if tc.in == nil {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %#v round-tripped to %#v, want %#v", i, tc.in, got, want)
		}
	}
}

func TestSegValueCodecDepthLimit(t *testing.T) {
	v := any("leaf")
	for i := 0; i < segMaxValueDepth+2; i++ {
		v = []any{v}
	}
	if _, err := appendSegValue(nil, v, 0); err == nil {
		t.Fatal("encoding past the depth cap succeeded")
	}
}

func TestSegValueCodecRejectsTruncatedInput(t *testing.T) {
	buf, err := appendSegValue(nil, Document{"k": []any{int64(1), "two"}, "f": 2.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		// Must error or stop cleanly — never panic, never read past the slice.
		_, _, _ = readSegValue(buf[:cut], 0)
	}
}

func TestEscapeShardBijective(t *testing.T) {
	names := []string{
		"stats", "paths_stats", "a.b", "UPPER-lower_09",
		"sp ace", "per%cent", "uni:côde", "../escape", "c-already.seg", "",
	}
	seen := map[string]string{}
	for _, name := range names {
		esc := escapeShard(name)
		for i := 0; i < len(esc); i++ {
			c := esc[i]
			safe := c == '_' || c == '-' || c == '%' ||
				('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
			if !safe {
				t.Fatalf("escapeShard(%q) = %q contains unsafe byte %q", name, esc, c)
			}
		}
		if prev, dup := seen[esc]; dup {
			t.Fatalf("collision: %q and %q both escape to %q", prev, name, esc)
		}
		seen[esc] = name
		back, ok := unescapeShard(esc)
		if !ok || back != name {
			t.Fatalf("unescapeShard(escapeShard(%q)) = %q, %v", name, back, ok)
		}
	}
	// Only escapeShard's own spellings decode: another spelling of the same
	// name would be a second shard file for one collection.
	for _, token := range []string{"a%2f", "a.b", "sp ace", "%2", "%zz", "%4A"} {
		if name, ok := unescapeShard(token); ok {
			t.Errorf("unescapeShard(%q) accepted a token escapeShard never writes (as %q)", token, name)
		}
	}
}

// writeShardNamed stores one document in collection "a/" and leaves its
// shard file (escaped c-a%2F.seg) in a fresh segment directory, returning
// the directory and that file's path.
func writeShardNamed(t *testing.T) (dir, upper string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "db")
	db := mustOpenPath(t, dir)
	if err := db.Collection("a/").Insert(Document{"_id": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	upper = filepath.Join(dir, segShardPrefix+"a%2F"+segShardSuffix)
	if _, err := os.Stat(upper); err != nil {
		t.Fatalf("shard for %q: %v", "a/", err)
	}
	return dir, upper
}

// TestOpenRefusesLowercaseShardName: a shard file spelled c-a%2f.seg is not
// one escapeShard writes, so Open refuses it instead of replaying it into
// collection "a/" while appending to c-a%2F.seg.
func TestOpenRefusesLowercaseShardName(t *testing.T) {
	dir, upper := writeShardNamed(t)
	if err := os.Rename(upper, filepath.Join(dir, segShardPrefix+"a%2f"+segShardSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithPath(dir)); err == nil || !strings.Contains(err.Error(), "unrecognized shard file") {
		t.Fatalf("Open over a lowercase-escaped shard: %v, want an unrecognized shard file error", err)
	}
}

// TestOpenRefusesTwoSpellingsOfOneShard: with c-a%2f.seg beside c-a%2F.seg,
// replaying both into "a/" would split the collection's later appends from
// half its history; Open refuses the directory.
func TestOpenRefusesTwoSpellingsOfOneShard(t *testing.T) {
	dir, upper := writeShardNamed(t)
	if err := os.WriteFile(filepath.Join(dir, segShardPrefix+"a%2f"+segShardSuffix), readAll(t, upper), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithPath(dir)); err == nil || !strings.Contains(err.Error(), "unrecognized shard file") {
		t.Fatalf("Open over two spellings of one shard: %v, want an unrecognized shard file error", err)
	}
}

// TestOpenRefusesExistingFile: a path that already exists as a regular
// file — a journal in some other format, or anything else — is refused
// with an error naming it, and the file is left byte-identical: neither
// replayed as an empty database nor overwritten.
func TestOpenRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.db")
	content := []byte(`{"op":"insert","c":"paths","doc":{"_id":"1_1","hops":6}}` + "\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(WithPath(path))
	if err == nil {
		db.Close()
		t.Fatal("Open over a regular file succeeded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name %s", err, path)
	}
	if got := readAll(t, path); !bytes.Equal(got, content) {
		t.Fatalf("refused file changed:\n%q\nwant\n%q", got, content)
	}
}

// TestOpenBadDir: a path whose parent directory does not exist is refused;
// Open creates the segment directory itself, never its parents.
func TestOpenBadDir(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "no", "such", "dir")
	if _, err := Open(WithPath(filepath.Join(parent, "db"))); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := os.Stat(parent); !os.IsNotExist(err) {
		t.Errorf("refused Open left %s behind: %v", parent, err)
	}
}

// segmentFixtureRecords is the fixed op sequence every replay-bound test
// (and the fuzz seed corpus) builds its shard file from.
func segmentFixtureRecords() []Record {
	return []Record{
		{Op: "insert", Collection: "stats", Doc: Document{"_id": "a", "v": int64(1)}},
		{Op: "insert", Collection: "stats", Doc: Document{"_id": "b", "lat": 9.5, "tags": []string{"up"}}},
		{Op: "insert", Collection: "stats", Doc: Document{"_id": "c", "v": int64(3)}, Replace: true},
		{Op: "delete", Collection: "stats", ID: "a"},
		{Op: "drop", Collection: "stats"},
	}
}

// buildSegmentFixture renders the fixture records as one shard file's bytes:
// magic, two records, a commit marker, three records, a commit marker.
func buildSegmentFixture(t testing.TB) []byte {
	t.Helper()
	buf := []byte(segMagic)
	var err error
	for i, rec := range segmentFixtureRecords() {
		if buf, err = appendRecordFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			buf = appendCommitFrame(buf)
		}
	}
	return appendCommitFrame(buf)
}

func recordsJSON(t testing.TB, recs []Record) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// replayShardBytes writes data as a shard file and replays it, returning
// the applied records and the replay error.
func replayShardBytes(t testing.TB, data []byte) (string, []Record, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), segShardPrefix+"stats"+segShardSuffix)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	_, _, err := replaySegmentFile(path, nil, func(r Record) { recs = append(recs, r) }, 0)
	return path, recs, err
}

// TestSegmentReplayTruncationPrefix cuts the fixture file at every byte
// offset: replay must never error (a cut is a torn tail, not corruption),
// must apply an exact prefix of the original records, and must leave the
// file in a state that replays identically.
func TestSegmentReplayTruncationPrefix(t *testing.T) {
	full := buildSegmentFixture(t)
	want := recordsJSON(t, segmentFixtureRecords())
	for cut := len(full); cut >= len(segMagic); cut-- {
		path, recs, err := replayShardBytes(t, full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := recordsJSON(t, recs)
		if len(got) > len(want) {
			t.Fatalf("cut %d: replayed %d records from a %d-record log", cut, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d record %d: %s, want %s", cut, i, got[i], want[i])
			}
		}
		// Second replay of the truncated file: same records, still no error.
		var again []Record
		if _, _, err := replaySegmentFile(path, nil, func(r Record) { again = append(again, r) }, 0); err != nil {
			t.Fatalf("cut %d: second replay: %v", cut, err)
		}
		if len(again) != len(recs) {
			t.Fatalf("cut %d: second replay applied %d records, first %d", cut, len(again), len(recs))
		}
	}
	// Cuts inside the magic reset a never-committed shard to empty.
	for cut := len(segMagic) - 1; cut >= 0; cut-- {
		path, recs, err := replayShardBytes(t, full[:cut])
		if err != nil || len(recs) != 0 {
			t.Fatalf("cut %d: %v, %d records", cut, err, len(recs))
		}
		if st, _ := os.Stat(path); st.Size() != 0 {
			t.Fatalf("cut %d: torn-header shard kept %d bytes", cut, st.Size())
		}
	}
}

// TestSegmentReplayBitFlip flips one bit in every frame-payload byte in
// turn: replay must stop at or before the damaged frame, never error and
// never apply a record whose frame failed its CRC.
func TestSegmentReplayBitFlip(t *testing.T) {
	full := buildSegmentFixture(t)
	want := recordsJSON(t, segmentFixtureRecords())
	for off := len(segMagic); off < len(full); off += 7 {
		data := append([]byte(nil), full...)
		data[off] ^= 0x10
		_, recs, err := replayShardBytes(t, data)
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		got := recordsJSON(t, recs)
		if len(got) > len(want) {
			t.Fatalf("flip at %d: %d records from a %d-record log", off, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("flip at %d: record %d is %s, want %s (replayed past bad CRC)", off, i, got[i], want[i])
			}
		}
	}
}

func TestSegmentReplayRejectsForeignFile(t *testing.T) {
	_, _, err := replayShardBytes(t, []byte("{\"op\":\"insert\"}\n"))
	if err == nil {
		t.Fatal("replaying a foreign file as a segment succeeded")
	}
}

// TestSegmentTruncateTailBounds pins TruncateLogTail's segment crash model:
// the whole uncommitted suffix goes, committed frames survive, the record
// holding the marker floors the cut, and a marker-free log refuses.
func TestSegmentTruncateTailBounds(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		path := filepath.Join(dir, segShardPrefix+"stats"+segShardSuffix)
		buf := []byte(segMagic)
		var err error
		for _, rec := range []Record{
			{Op: "insert", Collection: "stats", Doc: Document{"_id": "meta-123", "kind": "campaign"}},
			{Op: "insert", Collection: "stats", Doc: Document{"_id": "s1"}},
		} {
			if buf, err = appendRecordFrame(buf, rec); err != nil {
				t.Fatal(err)
			}
		}
		buf = appendCommitFrame(buf)
		if buf, err = appendRecordFrame(buf, Record{Op: "insert", Collection: "stats", Doc: Document{"_id": "uncommitted"}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, path
	}

	t.Run("cuts uncommitted suffix only", func(t *testing.T) {
		dir, path := build(t)
		if err := TruncateLogTail(dir, "meta-123"); err != nil {
			t.Fatal(err)
		}
		_, recs, err := replayShardBytes(t, readAll(t, path))
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{}
		for _, r := range recs {
			ids[r.Doc.ID()] = true
		}
		if !ids["meta-123"] || !ids["s1"] || ids["uncommitted"] {
			t.Fatalf("surviving records: %v", ids)
		}
	})
	t.Run("marker floors the cut past commit markers", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, segShardPrefix+"p"+segShardSuffix)
		// No commit marker at all, but the first record holds the marker: the
		// cut must stop after it rather than emptying the shard.
		buf := []byte(segMagic)
		var err error
		if buf, err = appendRecordFrame(buf, Record{Op: "insert", Collection: "p", Doc: Document{"_id": "meta-9"}}); err != nil {
			t.Fatal(err)
		}
		if buf, err = appendRecordFrame(buf, Record{Op: "insert", Collection: "p", Doc: Document{"_id": "later"}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := TruncateLogTail(dir, "meta-9"); err != nil {
			t.Fatal(err)
		}
		_, recs, err := replayShardBytes(t, readAll(t, path))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Doc.ID() != "meta-9" {
			t.Fatalf("survivors: %+v", recs)
		}
	})
	t.Run("missing marker refuses", func(t *testing.T) {
		dir, _ := build(t)
		if err := TruncateLogTail(dir, "absent-marker"); err == nil {
			t.Fatal("truncating without the marker succeeded")
		}
	})
}

func readAll(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentShardPerCollection: writers on different collections land in
// different files, named for their collection.
func TestSegmentShardPerCollection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := mustOpenPath(t, dir)
	for _, name := range []string{"alpha", "paths_stats", "with space"} {
		if err := db.Collection(name).Insert(Document{"_id": "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "paths_stats", "with space"} {
		p := filepath.Join(dir, segShardPrefix+escapeShard(name)+segShardSuffix)
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("shard for %q: %v", name, err)
		}
	}
}

// stubSyncTarget adapts a plain func to the committer's syncTarget hook.
type stubSyncTarget func() error

func (f stubSyncTarget) syncForCommit() error { return f() }

// TestGroupCommitterRounds pins the committer's accounting: sequential
// commits each run a round, concurrent commits coalesce into at most
// commit-count rounds, and a sync failure is sticky for every later caller.
func TestGroupCommitterRounds(t *testing.T) {
	var g groupCommitter
	g.init()
	var syncs atomic.Int64
	ok := stubSyncTarget(func() error { syncs.Add(1); return nil })
	for i := 0; i < 3; i++ {
		if err := g.commit(ok); err != nil {
			t.Fatal(err)
		}
	}
	if syncs.Load() != 3 {
		t.Fatalf("3 sequential commits ran %d sync rounds", syncs.Load())
	}

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.commit(ok); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := syncs.Load() - 3; n < 1 || n > callers {
		t.Fatalf("%d concurrent commits ran %d sync rounds", callers, n)
	}

	bad := stubSyncTarget(func() error { return fmt.Errorf("disk gone") })
	if err := g.commit(bad); err == nil {
		t.Fatal("failed sync round returned nil")
	}
	if err := g.commit(ok); err == nil {
		t.Fatal("sticky sync error cleared itself")
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzSegmentReplay when DOCDB_REGEN_CORPUS=1 is set (run it
// after changing the segment format). The corpus mirrors the f.Add seeds:
// the intact fixture, truncations, a bit flip and foreign bytes.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DOCDB_REGEN_CORPUS") == "" {
		t.Skip("set DOCDB_REGEN_CORPUS=1 to rewrite the corpus")
	}
	full := buildSegmentFixture(t)
	flipped := append([]byte(nil), full...)
	flipped[len(segMagic)+11] ^= 0x40
	seeds := map[string][]byte{
		"intact":      full,
		"torn-frame":  full[:len(full)-3],
		"torn-early":  full[:len(segMagic)+5],
		"magic-only":  []byte(segMagic),
		"bit-flip":    flipped,
		"foreign-txt": []byte("not a segment at all\n"),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSegmentReplay feeds arbitrary bytes to the shard replayer. Whatever
// the damage — random truncation, bit flips, garbage — replay must never
// panic, must never error on a well-formed magic (damage past the header is
// a torn tail by definition), must only apply frames that pass their CRC,
// and must leave the file in a state whose second replay is error-free and
// identical. Pure truncations of the valid fixture must additionally yield
// an exact record prefix.
func FuzzSegmentReplay(f *testing.F) {
	full := buildSegmentFixture(f)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:len(segMagic)+5])
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte("not a segment at all\n"))
	flipped := append([]byte(nil), full...)
	flipped[len(segMagic)+11] ^= 0x40
	f.Add(flipped)

	wantJSON := recordsJSON(f, segmentFixtureRecords())
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segShardPrefix+"stats"+segShardSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []Record
		_, _, err := replaySegmentFile(path, nil, func(r Record) { recs = append(recs, r) }, 0)
		if err != nil {
			if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
				t.Fatalf("replay errored on a well-formed header: %v", err)
			}
			return // foreign file rejected: fine
		}
		if bytes.HasPrefix(full, data) {
			// A pure truncation: applied records must be an exact prefix.
			got := recordsJSON(t, recs)
			if len(got) > len(wantJSON) {
				t.Fatalf("truncation replayed %d records from a %d-record log", len(got), len(wantJSON))
			}
			for i := range got {
				if got[i] != wantJSON[i] {
					t.Fatalf("record %d: %s, want %s", i, got[i], wantJSON[i])
				}
			}
		}
		// The surviving file must be fully framed: every byte past the magic
		// belongs to a CRC-valid frame (nothing torn was kept)...
		kept := readAll(t, path)
		if len(kept) > 0 {
			off := int64(len(segMagic))
			for {
				payload, next, ok := nextFrame(kept, off)
				if !ok {
					break
				}
				_ = payload
				off = next
			}
			if off != int64(len(kept)) {
				t.Fatalf("%d unframed bytes survived replay", int64(len(kept))-off)
			}
		}
		// ...and a second replay must agree exactly with the first.
		var again []Record
		if _, _, err := replaySegmentFile(path, nil, func(r Record) { again = append(again, r) }, 0); err != nil {
			t.Fatalf("second replay errored: %v", err)
		}
		a, b := recordsJSON(t, recs), recordsJSON(t, again)
		if len(a) != len(b) {
			t.Fatalf("second replay applied %d records, first %d", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay not idempotent at record %d: %s vs %s", i, a[i], b[i])
			}
		}
	})
}
