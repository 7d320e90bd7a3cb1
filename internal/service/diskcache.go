package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// This file is the persistent second level of the result cache: a
// disk-backed, append-only segment store keyed by the same SHA-256
// content address as the in-memory LRU. Results written here survive
// restarts, so a warm macsd replica serves yesterday's kernels without
// a single pipeline run. The store is deliberately simple — append-only
// segment files of JSON records, an index rebuilt by scanning on open —
// because the content-addressed keys make entries immutable: a key is
// either present with the one correct value or absent.

const (
	// diskCacheVersion is baked into every segment header through the
	// config fingerprint. Bump it whenever a persisted response schema,
	// the content-key format or the answer a key names changes; old
	// segments then self-invalidate on open instead of lingering as
	// unreachable bytes or serving a stale answer.
	diskCacheVersion = 3

	// diskSegmentMaxBytes rotates the active segment once it grows past
	// this size, keeping any single file cheap to scan on open.
	diskSegmentMaxBytes = 4 << 20

	diskMagic = "macs-cache"
)

// segmentHeader is the first line of every segment file. A segment whose
// header does not match the store's magic, version and configuration
// fingerprint is stale — written by an older schema or a differently
// configured pipeline — and is deleted on open.
type segmentHeader struct {
	Magic       string `json:"magic"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// diskRecord is one persisted cache entry: a JSON line in a segment.
type diskRecord struct {
	K Key             `json:"k"`
	V json.RawMessage `json:"v"`
}

// diskRef locates one record's line inside a segment file.
type diskRef struct {
	path string
	off  int64
	len  int64
}

// DiskCache is the persistent cache store. It is safe for concurrent
// use; Get reads records directly from their segment, Put appends to the
// active segment under a lock.
type DiskCache struct {
	dir         string
	fingerprint string

	mu      sync.Mutex
	index   map[Key]diskRef
	cur     *os.File // active segment, nil until the first Put after open
	curPath string
	curSize int64
	seq     int // next segment sequence number
	segs    int
	bytes   int64

	hits, misses, writes, invalidated int64
}

// OpenDiskCache opens (or creates) the segment store in dir. Existing
// segments with a matching header are scanned to rebuild the index;
// segments written under a different version or configuration
// fingerprint are deleted, so stale schemas self-invalidate. A segment's
// unparseable tail (a crash mid-append) is truncated from the index but
// its intact prefix is kept.
func OpenDiskCache(dir, fingerprint string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: persistent cache: %w", err)
	}
	c := &DiskCache{
		dir:         dir,
		fingerprint: fingerprint,
		index:       make(map[Key]diskRef),
		seq:         1,
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("service: persistent cache: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if n := segmentSeq(p); n >= c.seq {
			c.seq = n + 1
		}
		ok, size, err := c.loadSegment(p)
		if err != nil {
			return nil, err
		}
		if !ok {
			c.invalidated++
			os.Remove(p) //nolint:errcheck // stale segment; best-effort cleanup
			continue
		}
		c.segs++
		c.bytes += size
	}
	return c, nil
}

// segmentSeq extracts the sequence number from a segment filename;
// 0 for names that do not parse (they never collide with generated ones).
func segmentSeq(path string) int {
	var n int
	if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.log", &n); err != nil {
		return 0
	}
	return n
}

// loadSegment scans one segment into the index. It returns ok=false for
// a segment whose header mismatches (stale), and the number of bytes of
// intact records it indexed.
func (c *DiskCache) loadSegment(path string) (ok bool, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, fmt.Errorf("service: persistent cache: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), diskSegmentMaxBytes+(1<<20))
	if !sc.Scan() {
		return false, 0, nil // empty or unreadable: treat as stale
	}
	headerLine := sc.Bytes()
	var h segmentHeader
	if err := json.Unmarshal(headerLine, &h); err != nil ||
		h.Magic != diskMagic || h.Version != diskCacheVersion || h.Fingerprint != c.fingerprint {
		return false, 0, nil
	}
	off := int64(len(headerLine)) + 1
	for sc.Scan() {
		line := sc.Bytes()
		n := int64(len(line)) + 1
		var rec diskRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.K == "" {
			// A torn tail from a crash mid-append: keep what precedes it,
			// ignore the rest.
			break
		}
		c.index[rec.K] = diskRef{path: path, off: off, len: int64(len(line))}
		off += n
	}
	return true, off, nil
}

// Get returns the persisted JSON value for k, if present.
func (c *DiskCache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	ref, ok := c.index[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()

	// Records are immutable once indexed, so the read needs no lock.
	f, err := os.Open(ref.path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	buf := make([]byte, ref.len)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, false
	}
	var rec diskRecord
	if err := json.Unmarshal(buf, &rec); err != nil || rec.K != k {
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return rec.V, true
}

// Put appends one entry to the active segment. Entries are
// content-addressed and immutable, so a key already present is a no-op.
func (c *DiskCache) Put(k Key, val []byte) error {
	line, err := json.Marshal(diskRecord{K: k, V: val})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[k]; ok {
		return nil
	}
	if c.cur == nil {
		if err := c.openSegmentLocked(); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := c.cur.Write(buf); err != nil {
		return err
	}
	c.index[k] = diskRef{path: c.curPath, off: c.curSize, len: int64(len(line))}
	c.curSize += int64(len(buf))
	c.bytes += int64(len(buf))
	c.writes++
	if c.curSize >= diskSegmentMaxBytes {
		c.cur.Close() //nolint:errcheck // rotation; next Put reopens
		c.cur = nil
	}
	return nil
}

// openSegmentLocked starts a fresh segment with its header line.
// Callers hold c.mu.
func (c *DiskCache) openSegmentLocked() error {
	path := filepath.Join(c.dir, fmt.Sprintf("seg-%06d.log", c.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var header bytes.Buffer
	if err := json.NewEncoder(&header).Encode(segmentHeader{
		Magic:       diskMagic,
		Version:     diskCacheVersion,
		Fingerprint: c.fingerprint,
	}); err != nil {
		f.Close() //nolint:errcheck // header encode failed; file unused
		return err
	}
	if _, err := f.Write(header.Bytes()); err != nil {
		f.Close() //nolint:errcheck // header write failed; file unused
		return err
	}
	c.seq++
	c.segs++
	c.cur, c.curPath, c.curSize = f, path, int64(header.Len())
	c.bytes += int64(header.Len())
	return nil
}

// Len returns the number of persisted entries.
func (c *DiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Close flushes and closes the active segment. Get keeps working after
// Close (reads open their segment per call); only writes stop.
func (c *DiskCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		c.cur.Close() //nolint:errcheck // shutdown; nothing to do about it
		c.cur = nil
	}
}

// DiskCacheStats is a point-in-time snapshot of the store, read by the
// macsd_persistent_cache_* families on /metrics.
type DiskCacheStats struct {
	Entries  int
	Segments int
	Bytes    int64
	Hits     int64
	Misses   int64
	Writes   int64
	// Invalidated counts segments dropped on open because their version
	// or configuration fingerprint did not match.
	Invalidated int64
}

// Stats returns a snapshot of the store's counters.
func (c *DiskCache) Stats() DiskCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DiskCacheStats{
		Entries:     len(c.index),
		Segments:    c.segs,
		Bytes:       c.bytes,
		Hits:        c.hits,
		Misses:      c.misses,
		Writes:      c.writes,
		Invalidated: c.invalidated,
	}
}
