package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"macs"
)

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	val := []byte(`{"cycles":1234}`)
	if err := c.Put(Key("k1"), val); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(Key("k1"))
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get(k1) = %q, %v; want %q", got, ok, val)
	}
	if _, ok := c.Get(Key("absent")); ok {
		t.Fatal("Get(absent) hit")
	}
	// Entries are immutable: a duplicate Put is a no-op, not a rewrite.
	if err := c.Put(Key("k1"), []byte(`{"cycles":9}`)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("after duplicate Put: %+v, want 1 write / 1 entry", st)
	}
	if got, _ := c.Get(Key("k1")); !bytes.Equal(got, val) {
		t.Fatalf("duplicate Put rewrote the entry: %q", got)
	}
	c.Close()

	// Reopen with the same fingerprint: the index is rebuilt by scanning
	// and the entry is a warm hit.
	c2, err := OpenDiskCache(dir, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", c2.Len())
	}
	got, ok = c2.Get(Key("k1"))
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("reopened Get(k1) = %q, %v; want %q", got, ok, val)
	}
}

func TestDiskCacheFingerprintInvalidation(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(Key("k1"), []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A different fingerprint (schema bump, different pipeline config)
	// must drop the stale segment rather than serve wrong answers.
	c2, err := OpenDiskCache(dir, "fp-b")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 0 {
		t.Fatalf("stale entries survived a fingerprint change: Len = %d", c2.Len())
	}
	if st := c2.Stats(); st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", st.Invalidated)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("stale segment files left behind: %v", segs)
	}
}

// TestDiskCacheVersionInvalidation: a segment written under any older
// store version self-invalidates even when its fingerprint matches, so
// content keys of an older format never linger unreachable on disk and
// answers an older version gave are never served again.
func TestDiskCacheVersionInvalidation(t *testing.T) {
	fp, err := configFingerprint(Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < diskCacheVersion; v++ {
		dir := t.TempDir()
		old := fmt.Sprintf(`{"magic":%q,"version":%d,"fingerprint":%q}`+"\n"+`{"k":"k1","v":1}`+"\n", diskMagic, v, fp)
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenDiskCache(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		c.Close()
		if st.Invalidated != 1 || st.Entries != 0 {
			t.Fatalf("version-%d segment: %+v, want invalidated 1 and no entries", v, st)
		}
	}
}

func TestDiskCacheTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{"k1", "k2"} {
		if err := c.Put(k, []byte(`{"v":"`+string(k)+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	// Simulate a crash mid-append: a half-written JSON line at the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"k3","v":{"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The intact prefix survives; the torn record is ignored.
	c2, err := OpenDiskCache(dir, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("after torn tail Len = %d, want 2", c2.Len())
	}
	for _, k := range []Key{"k1", "k2"} {
		if _, ok := c2.Get(k); !ok {
			t.Fatalf("entry %s lost to the torn tail", k)
		}
	}
	if _, ok := c2.Get(Key("k3")); ok {
		t.Fatal("torn record served")
	}
	// The store stays writable after recovery (a fresh segment).
	if err := c2.Put(Key("k4"), []byte(`4`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(Key("k4")); !ok {
		t.Fatal("post-recovery Put not readable")
	}
}

// TestServiceWarmRestartZeroRuns is the persistence acceptance test: a
// service with a cache dir analyzes a batch, shuts down, and a fresh
// service over the same dir serves the identical batch entirely from
// the persistent cache — zero pipeline runs.
func TestServiceWarmRestartZeroRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, QueueSize: 64, CacheDir: dir}
	batch := lfkBatch(t, 10)
	ctx := context.Background()

	s := New(cfg)
	res := runBatch(t, s, ctx, batch)
	if len(res) != len(batch.Items) {
		t.Fatalf("cold batch emitted %d results, want %d", len(res), len(batch.Items))
	}
	for i, r := range res {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("cold item %d: %+v", i, r)
		}
	}
	if got := pipelineRuns(t, s); got != int64(len(batch.Items)) {
		t.Fatalf("cold batch ran the pipeline %d times, want %d", got, len(batch.Items))
	}
	m := scrape(t, s)
	if metric(m, "macsd_persistent_cache_enabled", "") != 1 ||
		metric(m, "macsd_persistent_cache_writes_total", "") != float64(len(batch.Items)) {
		t.Fatalf("persistent cache after cold batch: %v", m)
	}
	s.Close()

	s2 := New(cfg)
	defer s2.Close()
	res2 := runBatch(t, s2, ctx, batch)
	if len(res2) != len(batch.Items) {
		t.Fatalf("warm batch emitted %d results, want %d", len(res2), len(batch.Items))
	}
	for i, r := range res2 {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("warm item %d: %+v", i, r)
		}
		if !r.Result.Cached {
			t.Fatalf("warm item %d missed the cache", i)
		}
	}
	if got := pipelineRuns(t, s2); got != 0 {
		t.Fatalf("warm restart ran the pipeline %d times, want 0", got)
	}
	if hits := metric(scrape(t, s2), "macsd_persistent_cache_hits_total", ""); hits < float64(len(batch.Items)) {
		t.Fatalf("persistent hits = %v, want >= %d", hits, len(batch.Items))
	}

	// The warm results match the cold run bit-for-bit where it matters.
	for i := range res {
		if res[i].Result.Cycles != res2[i].Result.Cycles {
			t.Fatalf("item %d: cold %d cycles, warm %d", i, res[i].Result.Cycles, res2[i].Result.Cycles)
		}
	}
}

// TestServiceUnusableCacheDir: a cache dir that cannot be created must
// degrade to memory-only service, not fail startup.
func TestServiceUnusableCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 1, QueueSize: 4, CacheDir: filepath.Join(file, "cache")})
	r, err := s.Analyze(context.Background(), AnalyzeRequest{Source: saxpySrc, Iterations: 16,
		Prime: Priming{Ints: map[string]int64{"N": 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatalf("memory-only fallback broken: %+v", r)
	}
	if metric(scrape(t, s), "macsd_persistent_cache_enabled", "") != 0 {
		t.Fatal("persistent cache reported enabled over an unusable dir")
	}
}

// TestConfigFingerprintMachineKeyed pins the cache keying scheme to the
// canonical machine fingerprint: two services differing only in a machine
// field (bank count) must not share persisted results, while run-bound
// knobs that do not change result meaning for identical requests still
// key independently. A fresh service over a cache dir written under a
// different machine drops the stale segment on open.
func TestConfigFingerprintMachineKeyed(t *testing.T) {
	base := Config{Workers: 1, QueueSize: 4}
	fpA, err := configFingerprint(base.withDefaults())
	if err != nil {
		t.Fatal(err)
	}

	// Same config → same fingerprint (deterministic keying).
	fpA2, err := configFingerprint(base.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpA2 {
		t.Fatalf("fingerprint not deterministic")
	}

	// A machine change moves the fingerprint.
	diff := base
	diff.VM.Machine = macs.DefaultMachine()
	diff.VM.Machine.Banks = 16
	fpB, err := configFingerprint(diff.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if fpB == fpA {
		t.Fatalf("bank-count change did not move the cache fingerprint")
	}

	// A run-bound change (instruction budget) also moves it — budgets can
	// change whether a result exists at all.
	run := base
	run.VM.MaxInstrs = 12345
	fpC, err := configFingerprint(run.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if fpC == fpA {
		t.Fatalf("run-config change did not move the cache fingerprint")
	}

	// End to end: a cache written under machine A self-invalidates when a
	// service with machine B opens the same directory.
	dir := t.TempDir()
	cfgA := Config{Workers: 2, QueueSize: 8, CacheDir: dir}
	sA := New(cfgA)
	if _, err := sA.Analyze(context.Background(), AnalyzeRequest{Source: saxpySrc, Iterations: 16,
		Prime: Priming{Ints: map[string]int64{"N": 16}}}); err != nil {
		t.Fatal(err)
	}
	if w := metric(scrape(t, sA), "macsd_persistent_cache_writes_total", ""); w != 1 {
		t.Fatalf("machine A wrote %v entries, want 1", w)
	}
	sA.Close()

	cfgB := cfgA
	cfgB.VM.Machine = macs.DefaultMachine()
	cfgB.VM.Machine.Banks = 16
	sB := New(cfgB)
	defer sB.Close()
	m := scrape(t, sB)
	if metric(m, "macsd_persistent_cache_enabled", "") != 1 {
		t.Fatal("persistent cache not enabled under machine B")
	}
	if metric(m, "macsd_persistent_cache_invalidated_total", "") != 1 ||
		metric(m, "macsd_persistent_cache_entries", "") != 0 {
		t.Fatalf("machine change did not invalidate the cache: %v", m)
	}
}
