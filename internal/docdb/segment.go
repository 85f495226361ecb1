package docdb

// segmentBackend stores the mutation log as one binary segment file per
// collection under a directory. Appends for different collections go to
// different files behind different mutexes, so concurrent InsertMany /
// UpsertMany on different collections don't serialize on a single log
// lock. Frames carry per-record CRC-32C (wal.go); commit markers record
// fsync points, which is what lets torn tails be detected and cut on
// replay, and what bounds the chaos harness's crash-truncation model
// (TruncateLogTail).
//
// Lock order: backend.mu (shard map) before shard.mu, never the reverse;
// neither is ever held while engine locks are taken.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	segShardPrefix = "c-"
	segShardSuffix = ".seg"
)

// errLogClosed poisons a closed shard: appends after Close are dropped and
// reported on the next commit.
var errLogClosed = errors.New("docdb: log closed")

type segmentBackend struct {
	dir    string
	policy SyncPolicy

	gc groupCommitter

	mu     sync.Mutex
	shards map[string]*segShard
	err    error // sticky backend-level failure (shard create, close)
}

// segShard is one collection's segment file. path is immutable; mu guards
// the file handle and write state.
type segShard struct {
	collection string
	path       string

	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	buf   []byte // reused frame-encode buffer
	dirty bool   // frames appended since the last commit marker
	err   error  // sticky shard failure
}

// newSegmentBackend opens the segment directory at dir, creating it when
// absent. It refuses the two kinds of outside input it cannot own: a dir
// whose parent does not exist (Mkdir, not MkdirAll — a typo in a path must
// not silently grow a tree), and a dir that already exists as something
// other than a directory — a file in some other format, which must be
// neither replayed as empty nor overwritten.
func newSegmentBackend(dir string, policy SyncPolicy) (*segmentBackend, error) {
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("docdb: segment dir %s: %w", dir, err)
	}
	if st, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("docdb: segment dir %s: %w", dir, err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("docdb: %s exists and is not a segment directory", dir)
	}
	b := &segmentBackend{dir: dir, policy: policy, shards: make(map[string]*segShard)}
	b.gc.init()
	return b, nil
}

// escapeShard maps a collection name to a filename-safe token, bijectively:
// [A-Za-z0-9_-] pass through, everything else is %XX-encoded. Bijectivity
// matters — two collections must never share a shard file.
func escapeShard(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c == '-' || ('0' <= c && c <= '9') ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') {
			sb.WriteByte(c)
			continue
		}
		fmt.Fprintf(&sb, "%%%02X", c)
	}
	return sb.String()
}

// unescapeShard inverts escapeShard. It accepts only tokens escapeShard
// produces — a lowercase %2f or a raw '.' decodes to a name whose shard
// file has another spelling, and replaying both spellings into one
// collection would split its later appends from half its history.
func unescapeShard(token string) (string, bool) {
	var sb strings.Builder
	for i := 0; i < len(token); i++ {
		c := token[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+2 >= len(token) {
			return "", false
		}
		var v byte
		if _, err := fmt.Sscanf(token[i+1:i+3], "%02X", &v); err != nil {
			return "", false
		}
		sb.WriteByte(v)
		i += 2
	}
	name := sb.String()
	return name, escapeShard(name) == token
}

func (b *segmentBackend) shardPath(collection string) string {
	return filepath.Join(b.dir, segShardPrefix+escapeShard(collection)+segShardSuffix)
}

// shard returns (creating if needed) the shard for a collection.
func (b *segmentBackend) shard(collection string) *segShard {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.shards[collection]
	if !ok {
		s = &segShard{collection: collection, path: b.shardPath(collection)}
		b.shards[collection] = s
	}
	return s
}

// sortedShards snapshots the shard map in collection order — every
// multi-shard walk (sync, close, stale-shard sweep) uses it so side-effect
// order is a pure function of the data, not of map iteration.
func (b *segmentBackend) sortedShards() []*segShard {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*segShard, 0, len(b.shards))
	for _, s := range b.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].collection < out[j].collection })
	return out
}

// shardFiles lists the shard file names in dir, sorted.
func shardFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("docdb: segment dir %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(n, segShardPrefix) && strings.HasSuffix(n, segShardSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Replay streams every shard file, in sorted shard order, into apply,
// consulting fp.ReplayEntry (when fp is non-nil) once per record. It is
// called exactly once, before the DB is shared. Each shard's torn tail
// (first short, length-implausible, CRC-bad or undecodable frame) is
// truncated off that file, so later appends never merge into damaged
// bytes; a failpoint stop ends the whole replay and leaves every file as
// found.
func (b *segmentBackend) Replay(fp Failpoint, apply func(Record)) error {
	names, err := shardFiles(b.dir)
	if err != nil {
		return err
	}
	recno := 0
	for _, fn := range names {
		coll, ok := unescapeShard(strings.TrimSuffix(strings.TrimPrefix(fn, segShardPrefix), segShardSuffix))
		if !ok {
			return fmt.Errorf("docdb: segment dir %s: unrecognized shard file %s", b.dir, fn)
		}
		path := filepath.Join(b.dir, fn)
		var stopped bool
		recno, stopped, err = replaySegmentFile(path, fp, apply, recno)
		if err != nil {
			return err
		}
		//lint:ignore lockcheck Replay runs before the DB (and backend) is shared, no concurrent access is possible
		b.shards[coll] = &segShard{collection: coll, path: path}
		if stopped {
			break
		}
	}
	return nil
}

// replaySegmentFile replays one shard, truncating a torn tail in place.
// recno numbers records across the whole replay for fp.ReplayEntry;
// stopped reports a failpoint stop (file left untouched).
func replaySegmentFile(path string, fp Failpoint, apply func(Record), recno int) (_ int, stopped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return recno, false, fmt.Errorf("docdb: open segment %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("docdb: replay %s: %w", path, cerr)
		}
	}()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [len(segMagic)]byte
	if _, herr := io.ReadFull(r, hdr[:]); herr != nil {
		if herr == io.EOF {
			return recno, false, nil // empty file: fresh shard
		}
		if herr == io.ErrUnexpectedEOF {
			// Crash mid-header on a brand-new shard: nothing was ever
			// committed here, reset it.
			return recno, false, truncateAt(path, 0)
		}
		return recno, false, fmt.Errorf("docdb: replay %s: %w", path, herr)
	}
	if string(hdr[:]) != segMagic {
		return recno, false, fmt.Errorf("docdb: %s is not a segment file", path)
	}
	st, err := f.Stat()
	if err != nil {
		return recno, false, fmt.Errorf("docdb: replay %s: %w", path, err)
	}
	size := st.Size()
	good := int64(len(segMagic))
	pos := good // bytes consumed, including frames later judged torn
	var payload []byte
	torn := false
	for {
		var fh [frameHeaderSize]byte
		if _, rerr := io.ReadFull(r, fh[:]); rerr != nil {
			if rerr == io.EOF {
				break
			}
			if rerr == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return recno, false, fmt.Errorf("docdb: replay %s: %w", path, rerr)
		}
		ln := binary.LittleEndian.Uint32(fh[0:4])
		crc := binary.LittleEndian.Uint32(fh[4:8])
		// A length past the cap — or past the bytes the file actually has —
		// is a torn frame; checking against the file size first keeps a
		// corrupt length from forcing a giant doomed allocation.
		if ln > maxFramePayload || int64(ln) > size-pos-frameHeaderSize {
			torn = true
			break
		}
		pos += frameHeaderSize + int64(ln)
		if uint32(cap(payload)) < ln {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return recno, false, fmt.Errorf("docdb: replay %s: %w", path, rerr)
		}
		if crc32.Checksum(payload, segCRCTable) != crc {
			torn = true
			break
		}
		rec, isCommit, derr := decodeRecordPayload(payload)
		if derr != nil {
			torn = true
			break
		}
		good += frameHeaderSize + int64(ln)
		if isCommit {
			continue
		}
		if fp != nil && !fp.ReplayEntry(recno, rec.Op) {
			return recno, true, nil
		}
		recno++
		apply(rec)
	}
	if torn {
		return recno, false, truncateAt(path, good)
	}
	return recno, false, nil
}

func truncateAt(path string, n int64) error {
	if err := os.Truncate(path, n); err != nil {
		return fmt.Errorf("docdb: truncate torn tail %s: %w", path, err)
	}
	return nil
}

// Append encodes the record once, straight into its collection's shard
// buffer. It runs under the collection write lock, so it only buffers;
// errors are sticky and surface on the next Commit/Flush/Close. Writers on
// different collections contend only on the cheap shard lookup, not on
// each other's file locks.
func (b *segmentBackend) Append(rec Record) {
	s := b.shard(rec.Collection)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(rec)
}

func (s *segShard) appendLocked(rec Record) {
	if s.err != nil {
		return
	}
	if s.f == nil {
		if err := s.openLocked(); err != nil {
			s.err = err
			return
		}
	}
	buf, err := appendRecordFrame(s.buf[:0], rec)
	s.buf = buf[:0]
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(buf); err != nil {
		s.err = err
		return
	}
	s.dirty = true
}

// openLocked opens (creating with a magic header if absent) the shard's
// append side.
func (s *segShard) openLocked() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("docdb: open segment %s: %w", s.path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("docdb: open segment %s: %w", s.path, err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if st.Size() == 0 {
		if _, err := w.WriteString(segMagic); err != nil {
			_ = f.Close()
			return fmt.Errorf("docdb: open segment %s: %w", s.path, err)
		}
	}
	s.f, s.w = f, w
	return nil
}

// commitLocked seals the shard's appended frames under a commit marker and
// fsyncs. A clean shard is left untouched (no empty markers, no fsync).
func (s *segShard) commitLocked() error {
	if s.err != nil {
		return s.err
	}
	if s.f == nil || !s.dirty {
		return nil
	}
	buf := appendCommitFrame(s.buf[:0])
	s.buf = buf[:0]
	if _, err := s.w.Write(buf); err != nil {
		s.err = err
		return err
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.err = err
		return err
	}
	s.dirty = false
	return nil
}

func (s *segShard) closeLocked() error {
	cerr := s.commitLocked()
	if s.f != nil {
		if err := s.f.Close(); err != nil && cerr == nil {
			cerr = err
		}
		s.f, s.w = nil, nil
	}
	if s.err == nil {
		s.err = errLogClosed // poison further appends
	}
	return cerr
}

// commit is commitLocked behind the shard's own lock.
func (s *segShard) commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked()
}

// close is closeLocked behind the shard's own lock.
func (s *segShard) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

// syncForCommit commits every dirty shard, in collection order. It is both
// Flush's body and the group committer's per-round sync hook.
func (b *segmentBackend) syncForCommit() error {
	b.mu.Lock()
	err := b.err
	b.mu.Unlock()
	for _, s := range b.sortedShards() {
		if serr := s.commit(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// Commit is the per-batch durability point, called by every mutating
// operation after its records are appended. It is a no-op under
// SyncOnFlush. Under SyncGroupCommit, concurrent batches ride shared fsync
// rounds: one fsync per dirty shard per round, no matter how many writers
// commit inside the round's window.
func (b *segmentBackend) Commit() error {
	if b.policy != SyncGroupCommit {
		return nil
	}
	return b.gc.commit(b)
}

func (b *segmentBackend) Flush() error {
	return b.syncForCommit()
}

func (b *segmentBackend) Close() error {
	err := func() error {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.err
	}()
	for _, s := range b.sortedShards() {
		if serr := s.close(); serr != nil && serr != errLogClosed && err == nil {
			err = serr
		}
	}
	return err
}

// CheckpointCollection rewrites one collection's shard to exactly the
// emitted snapshot, online: the rewrite goes to a temporary file (no shard
// lock held, so Flush and other collections' writers proceed), then the
// shard swaps to it under its own lock via an atomic rename. The caller
// (DB.Compact) excludes writers on this one collection while snap runs.
func (b *segmentBackend) CheckpointCollection(name string, snap func(emit func(Record) error) error) error {
	s := b.shard(name)
	tmp := s.path + ".tmp"
	if err := writeSegmentSnapshot(tmp, snap); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("docdb: compact %s: %w", s.path, err)
		}
		s.f, s.w = nil, nil
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("docdb: compact %s: %w", s.path, err)
	}
	// The snapshot is synced; the shard reopens lazily on the next append.
	s.dirty = false
	s.err = nil
	return nil
}

// writeSegmentSnapshot writes a fresh shard file: magic, one frame per
// emitted record, a commit marker, fsynced. The partial file is removed on
// failure.
func writeSegmentSnapshot(tmp string, snap func(emit func(Record) error) error) (err error) {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("docdb: compact: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("docdb: compact: %w", cerr)
		}
		if err != nil {
			if rmErr := os.Remove(tmp); rmErr != nil && !os.IsNotExist(rmErr) {
				err = fmt.Errorf("%w (cleanup: %v)", err, rmErr)
			}
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(segMagic); err != nil {
		return fmt.Errorf("docdb: compact: %w", err)
	}
	var buf []byte
	if err := snap(func(rec Record) error {
		var ferr error
		buf, ferr = appendRecordFrame(buf[:0], rec)
		if ferr != nil {
			return ferr
		}
		_, werr := w.Write(buf)
		return werr
	}); err != nil {
		return fmt.Errorf("docdb: compact: %w", err)
	}
	if _, err := w.Write(appendCommitFrame(buf[:0])); err != nil {
		return fmt.Errorf("docdb: compact: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("docdb: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("docdb: compact: %w", err)
	}
	return nil
}

// DropStaleShards removes shard files whose collection no longer exists
// (dropped and never re-created). The caller excludes Drop and collection
// creation while it runs.
func (b *segmentBackend) DropStaleShards(live func(name string) bool) error {
	var firstErr error
	for _, s := range b.sortedShards() {
		if live(s.collection) {
			continue
		}
		s.mu.Lock()
		if s.f != nil {
			if err := s.f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("docdb: compact %s: %w", s.path, err)
			}
			s.f, s.w = nil, nil
		}
		s.err = errLogClosed
		s.mu.Unlock()
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = fmt.Errorf("docdb: compact %s: %w", s.path, err)
		}
		b.mu.Lock()
		delete(b.shards, s.collection)
		b.mu.Unlock()
	}
	return firstErr
}

// TruncateLogTail damages the segment directory at dir the way a crash's
// lost page-cache suffix would, for fault-injection harnesses (the chaos
// harness's truncateTail contract, docs/CHAOS.md): every shard loses its
// entire uncommitted suffix (bytes past its last commit marker — exactly
// what a crash before the next fsync loses), floored at the end of the
// record containing marker, a string that must survive (typically the
// campaign metadata document id). Committed bytes survive because the
// commit marker was written by an fsync — cutting them would un-happen
// durability and let a checkpoint outlive statistics it was ordered after.
//
// It refuses (returns an error) when marker appears in no shard: cutting a
// log that never recorded the campaign identity would destroy state a real
// crash cannot lose.
func TruncateLogTail(dir, marker string) error {
	names, err := shardFiles(dir)
	if err != nil {
		return fmt.Errorf("docdb: truncate: %w", err)
	}
	found := false
	for _, fn := range names {
		hit, err := truncateShardTail(filepath.Join(dir, fn), marker)
		if err != nil {
			return err
		}
		found = found || hit
	}
	if !found {
		return fmt.Errorf("docdb: truncate %s: marker %q not found", dir, marker)
	}
	return nil
}

// truncateShardTail scans one shard's frames, tracking the end of the last
// commit marker and of the last frame containing marker, and truncates the
// uncommitted suffix. Reports whether marker was seen.
func truncateShardTail(path, marker string) (found bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("docdb: truncate %s: %w", path, err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return false, nil // torn header or foreign file: nothing committed to preserve
	}
	needle := []byte(marker)
	off := int64(len(segMagic))
	committedEnd := off
	markerEnd := int64(0)
	for {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break
		}
		if len(payload) == 1 && payload[0] == segOpCommit {
			committedEnd = next
		} else if len(needle) > 0 && bytes.Contains(payload, needle) {
			found = true
			markerEnd = next
		}
		off = next
	}
	keep := committedEnd
	if markerEnd > keep {
		keep = markerEnd
	}
	if keep < int64(len(data)) {
		if err := os.Truncate(path, keep); err != nil {
			return found, fmt.Errorf("docdb: truncate %s: %w", path, err)
		}
	}
	return found, nil
}

// nextFrame validates and returns the frame starting at off, and the
// offset just past it.
func nextFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+frameHeaderSize > int64(len(data)) {
		return nil, 0, false
	}
	ln := binary.LittleEndian.Uint32(data[off : off+4])
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if ln > maxFramePayload || off+frameHeaderSize+int64(ln) > int64(len(data)) {
		return nil, 0, false
	}
	payload = data[off+frameHeaderSize : off+frameHeaderSize+int64(ln)]
	if crc32.Checksum(payload, segCRCTable) != crc {
		return nil, 0, false
	}
	return payload, off + frameHeaderSize + int64(ln), true
}
