package service

import (
	"time"

	"macs"
	"macs/internal/obs"
)

// This file declares every /metrics family, once, in exposition order.
// The families the service updates live in the registry; the rest read
// their owner (cache, queue, disk cache, runtime sampler) when /metrics
// renders. GET /metrics and GET
// /metrics?format=prom both render this one registry.

// latencyBuckets are the upper bounds (seconds, inclusive) of every
// latency histogram, requests and stages alike; an implicit +Inf bucket
// follows. The first bucket (50 µs) tells a raw cache hit from a cold
// request (~1 ms); the last reaches seconds.
var latencyBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// metrics is the service's registry and the families it updates.
type metrics struct {
	reg *obs.Registry

	// requests, requestErrors and requestDuration count each /v1 request
	// once, when its handler returns; stageDuration folds the stages
	// nested under its root span.
	requests, requestErrors         obs.Counter
	requestDuration, stageDuration  obs.Histogram
	batchItems                      obs.Counter
	dedupShared, pipelineRuns       obs.Counter
	simCycles, stallCycles          obs.Counter
	exploreSweeps, exploreSwept     obs.Counter
	explorePruned, exploreSimulated obs.Counter
}

// newMetrics declares the service's families. It runs last in New, once
// every owner it reads exists.
func newMetrics(s *Service) *metrics {
	start := time.Now()
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	r.GaugeFunc("macsd_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(start).Seconds() })
	m.requests = r.Counter("macsd_requests_total", "Requests by endpoint.", "endpoint")
	m.requestErrors = r.Counter("macsd_request_errors_total", "Failed requests by endpoint.", "endpoint")
	m.requestDuration = r.Histogram("macsd_request_duration_seconds", "Request latency by endpoint.",
		"endpoint", latencyBuckets)
	m.stageDuration = r.Histogram("macsd_stage_duration_seconds",
		"Pipeline stage latency, folded from request traces.", "stage", latencyBuckets)
	m.batchItems = r.Counter("macsd_batch_items_total", "Batch items by outcome.", "outcome")

	r.CounterFunc("macsd_cache_hits_total", "In-memory result cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("macsd_cache_misses_total", "In-memory result cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.CounterFunc("macsd_cache_evictions_total", "In-memory result cache evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.GaugeFunc("macsd_cache_entries", "In-memory result cache occupancy.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.GaugeFunc("macsd_cache_capacity", "In-memory result cache capacity.",
		func() float64 { return float64(s.cache.Stats().Capacity) })

	enabled := 0.0
	if s.disk != nil {
		enabled = 1
	}
	r.GaugeFunc("macsd_persistent_cache_enabled", "1 when the disk cache is open.",
		func() float64 { return enabled })
	if s.disk != nil {
		r.GaugeFunc("macsd_persistent_cache_entries", "Disk cache entries.",
			func() float64 { return float64(s.disk.Stats().Entries) })
		r.GaugeFunc("macsd_persistent_cache_segments", "Disk cache segment files.",
			func() float64 { return float64(s.disk.Stats().Segments) })
		r.GaugeFunc("macsd_persistent_cache_bytes", "Disk cache size in bytes.",
			func() float64 { return float64(s.disk.Stats().Bytes) })
		r.CounterFunc("macsd_persistent_cache_hits_total", "Disk cache hits.",
			func() float64 { return float64(s.disk.Stats().Hits) })
		r.CounterFunc("macsd_persistent_cache_misses_total", "Disk cache misses.",
			func() float64 { return float64(s.disk.Stats().Misses) })
		r.CounterFunc("macsd_persistent_cache_writes_total", "Disk cache writes.",
			func() float64 { return float64(s.disk.Stats().Writes) })
		r.CounterFunc("macsd_persistent_cache_invalidated_total",
			"Disk cache segments dropped on open for a stale fingerprint.",
			func() float64 { return float64(s.disk.Stats().Invalidated) })
	}

	r.GaugeFunc("macsd_queue_workers", "Worker pool size.",
		func() float64 { return float64(s.pool.Stats().Workers) })
	r.GaugeFunc("macsd_queue_in_flight", "Jobs executing right now.",
		func() float64 { return float64(s.pool.Stats().InFlight) })
	r.GaugeFunc("macsd_queue_depth", "Jobs waiting in the queue.",
		func() float64 { return float64(s.pool.Stats().Depth) })
	r.GaugeFunc("macsd_queue_capacity", "Queue capacity before load shedding.",
		func() float64 { return float64(s.pool.Stats().Capacity) })
	r.CounterFunc("macsd_queue_rejected_total", "Jobs shed with 429 at a full queue.",
		func() float64 { return float64(s.pool.Stats().Rejected) })
	r.CounterFunc("macsd_queue_completed_total", "Jobs run to completion.",
		func() float64 { return float64(s.pool.Stats().Done) })

	m.dedupShared = r.Counter("macsd_dedup_shared_total",
		"Requests served by attaching to another request's in-flight computation.", "")
	m.pipelineRuns = r.Counter("macsd_pipeline_runs_total", "Actual executions of the analysis pipeline.", "")
	m.simCycles = r.Counter("macsd_sim_cycles_total", "Simulated clock cycles executed by fresh runs.", "")
	m.stallCycles = r.Counter("macsd_stall_cycles_total",
		"Simulated cycle attribution by cause (issue cycles under \"issue\").", "cause")

	m.exploreSweeps = r.Counter("macsd_explore_sweeps_total", "Completed fresh design-space sweeps.", "")
	m.exploreSwept = r.Counter("macsd_explore_points_swept_total",
		"Grid points scored by the explore predictor across all sweeps.", "")
	m.explorePruned = r.Counter("macsd_explore_points_pruned_total",
		"Grid points answered analytically without simulation.", "")
	m.exploreSimulated = r.Counter("macsd_explore_points_simulated_total",
		"Grid points promoted to exact simulation.", "")

	if rt := s.sampler; rt != nil {
		r.GaugeFunc("go_goroutines", "Goroutines at the last runtime sample.",
			func() float64 { return float64(rt.Stats().Goroutines) })
		r.GaugeFunc("go_heap_alloc_bytes", "Live heap bytes at the last runtime sample.",
			func() float64 { return float64(rt.Stats().HeapAllocBytes) })
		r.GaugeFunc("go_heap_sys_bytes", "Heap bytes obtained from the OS.",
			func() float64 { return float64(rt.Stats().HeapSysBytes) })
		r.GaugeFunc("go_heap_objects", "Live heap objects at the last runtime sample.",
			func() float64 { return float64(rt.Stats().HeapObjects) })
		r.CounterFunc("go_gc_runs_total", "Completed GC cycles.",
			func() float64 { return float64(rt.Stats().GCRuns) })
		r.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.",
			func() float64 { return rt.Stats().GCPauseTotalSecs })
		r.GaugeFunc("go_last_gc_pause_seconds", "Most recent GC pause.",
			func() float64 { return rt.Stats().LastGCPauseSecs })
	}
	return m
}

// observeRequest counts one finished /v1 request: its duration (the root
// span's), whether it failed, and the stages nested under its root.
func (m *metrics) observeRequest(endpoint string, d time.Duration, failed bool, stages map[string]time.Duration) {
	m.requests.Add(endpoint, 1)
	errs := 0.0
	if failed {
		errs = 1
	}
	m.requestErrors.Add(endpoint, errs)
	m.requestDuration.Observe(endpoint, d.Seconds())
	for stage, d := range stages {
		m.stageDuration.Observe(stage, d.Seconds())
	}
}

// recordRun adds one fresh run's cycles and its stall attribution by
// cause, so the two families always cover the same runs. Cache hits
// never call it, so they do not inflate the counters.
func (m *metrics) recordRun(st macs.Stats) {
	m.simCycles.Add("", float64(st.Cycles))
	for cause, v := range st.Attr.Totals() {
		m.stallCycles.Add(cause, float64(v))
	}
}
