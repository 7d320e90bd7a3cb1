package service

import (
	"sort"
	"sync"
	"time"

	"macs/internal/obs"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of
// every latency histogram, endpoints and stages alike; an implicit +Inf
// bucket follows. The first bucket (50 µs) tells a raw cache hit from a
// cold request (~1 ms); the last reaches seconds.
var latencyBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// histogram is a fixed-bucket latency histogram in milliseconds.
type histogram struct {
	counts []int64 // len(latencyBucketsMS)+1, last is +Inf
	sumMS  float64
	maxMS  float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBucketsMS)+1)}
}

func (h *histogram) observe(ms float64) {
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.counts[i]++
	h.sumMS += ms
	if ms > h.maxMS {
		h.maxMS = ms
	}
}

// Metrics collects per-endpoint request counters and latency
// distributions, per-stage pipeline latency distributions, and per-item
// batch outcomes. Cache, queue and dedup figures live on their owners and
// are merged into the Snapshot by the Service.
type Metrics struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	stages    map[string]*stageMetrics
	// batchItems counts individual batch items by outcome ("ok",
	// "cached", "error") — batch items do not inflate the per-endpoint
	// request counters with a second label dimension; they get their own
	// family instead.
	batchItems map[string]int64
}

type endpointMetrics struct {
	count  int64
	errors int64
	hist   *histogram
}

type stageMetrics struct {
	count int64
	hist  *histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:      time.Now(),
		endpoints:  make(map[string]*endpointMetrics),
		stages:     make(map[string]*stageMetrics),
		batchItems: make(map[string]int64),
	}
}

// Observe records one finished request against endpoint.
func (m *Metrics) Observe(endpoint string, d time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[endpoint]
	if !ok {
		e = &endpointMetrics{hist: newHistogram()}
		m.endpoints[endpoint] = e
	}
	e.count++
	if failed {
		e.errors++
	}
	e.hist.observe(float64(d) / float64(time.Millisecond))
}

// ObserveStage folds one pipeline stage duration (from a request trace's
// span records) into the per-stage latency histograms.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stages[stage]
	if !ok {
		st = &stageMetrics{hist: newHistogram()}
		m.stages[stage] = st
	}
	st.count++
	st.hist.observe(float64(d) / float64(time.Millisecond))
}

// ObserveBatchItem records the outcome of one item of a batch request
// ("ok", "cached" or "error").
func (m *Metrics) ObserveBatchItem(outcome string) {
	m.mu.Lock()
	m.batchItems[outcome]++
	m.mu.Unlock()
}

// BucketCount is one cumulative histogram bucket: requests that finished
// in at most LEMS milliseconds (LEMS < 0 encodes +Inf).
type BucketCount struct {
	LEMS  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// LatencySnapshot summarizes one endpoint's latency distribution.
type LatencySnapshot struct {
	MeanMS  float64       `json:"mean_ms"`
	MaxMS   float64       `json:"max_ms"`
	Buckets []BucketCount `json:"buckets"`
}

// EndpointSnapshot is one endpoint's counters on /metrics.
type EndpointSnapshot struct {
	Count   int64           `json:"count"`
	Errors  int64           `json:"errors"`
	Latency LatencySnapshot `json:"latency"`
}

// Snapshot is the full /metrics document.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	// Stages breaks request latency down by pipeline stage (compile,
	// verify, bound, load, prime, simulate, predict, cache-lookup, ...),
	// folded from request traces' span records.
	Stages map[string]StageSnapshot `json:"stages,omitempty"`
	// BatchItems counts individual batch items by outcome ("ok",
	// "cached", "error") — the per-endpoint counters see one "batch"
	// request regardless of item count.
	BatchItems map[string]int64 `json:"batch_items,omitempty"`
	Cache      CacheStats       `json:"cache"`
	Queue      PoolStats        `json:"queue"`
	// DedupShared counts requests that attached to another request's
	// in-flight computation instead of starting their own.
	DedupShared int64 `json:"dedup_shared"`
	// PipelineRuns counts actual executions of the underlying analysis
	// pipeline (cache misses that ran to completion or error).
	PipelineRuns int64 `json:"pipeline_runs"`
	// StallCycles aggregates simulated cycle attribution by cause (issue
	// cycles under "issue") over every fresh pipeline run.
	StallCycles map[string]int64 `json:"stall_cycles"`
	// Explore reports the design-space sweep economics: sweeps completed
	// and grid points scored, pruned and simulated.
	Explore ExploreStats `json:"explore"`
	// Persistent reports the disk-backed second-level cache; all-zero
	// (Enabled false) when the service runs memory-only.
	Persistent DiskCacheStats `json:"persistent_cache"`
	// SimCycles is the total number of simulated clock cycles executed by
	// fresh pipeline runs (cache hits replay no cycles).
	SimCycles int64 `json:"sim_cycles"`
	// Runtime is the most recent Go-runtime sample; zero (SampledAt unset)
	// when the sampler is off (Config.RuntimeSample == 0).
	Runtime obs.RuntimeStats `json:"runtime,omitempty"`
}

// StageSnapshot is one pipeline stage's latency distribution.
type StageSnapshot struct {
	Count   int64           `json:"count"`
	Latency LatencySnapshot `json:"latency"`
}

// latencySnapshot renders one histogram's distribution summary.
func latencySnapshot(h *histogram, count int64) LatencySnapshot {
	ls := LatencySnapshot{MaxMS: h.maxMS}
	if count > 0 {
		ls.MeanMS = h.sumMS / float64(count)
	}
	var cum int64
	for i, n := range h.counts {
		cum += n
		le := -1.0 // +Inf
		if i < len(latencyBucketsMS) {
			le = latencyBucketsMS[i]
		}
		ls.Buckets = append(ls.Buckets, BucketCount{LEMS: le, Count: cum})
	}
	return ls
}

// snapshotEndpoints renders the per-endpoint section.
func (m *Metrics) snapshotEndpoints() map[string]EndpointSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]EndpointSnapshot, len(m.endpoints))
	for name, e := range m.endpoints {
		out[name] = EndpointSnapshot{
			Count:   e.count,
			Errors:  e.errors,
			Latency: latencySnapshot(e.hist, e.count),
		}
	}
	return out
}

// snapshotStages renders the per-stage section; nil before the first
// traced request.
func (m *Metrics) snapshotStages() map[string]StageSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.stages) == 0 {
		return nil
	}
	out := make(map[string]StageSnapshot, len(m.stages))
	for name, st := range m.stages {
		out[name] = StageSnapshot{Count: st.count, Latency: latencySnapshot(st.hist, st.count)}
	}
	return out
}

// snapshotBatchItems renders the batch-item outcome counters; nil before
// the first batch request.
func (m *Metrics) snapshotBatchItems() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.batchItems) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m.batchItems))
	for k, v := range m.batchItems {
		out[k] = v
	}
	return out
}
