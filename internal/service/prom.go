package service

import (
	"macs/internal/obs"
)

// This file renders the /metrics snapshot in the Prometheus text
// exposition format (GET /metrics?format=prom) through the hand-rolled
// writer in internal/obs — no client library, per the repo's
// zero-dependency policy. The inventory mirrors the JSON snapshot:
// per-endpoint counters and latency histograms, per-stage histograms,
// batch-item outcomes, both cache levels, queue gauges, stall-cause
// attribution, explore sweep counters, and the Go-runtime sample when
// the sampler is on.

// RenderProm renders one metrics snapshot as a Prometheus exposition
// document. The output always passes obs.ParseProm — the CI scrape gate
// and the golden tests hold it to that.
func RenderProm(snap Snapshot) []byte {
	w := obs.NewPromWriter()

	w.Gauge("macsd_uptime_seconds", "Seconds since the service started.",
		obs.Sample{Value: snap.UptimeSeconds})

	var reqs, errs []obs.Sample
	var durs []obs.HistSample
	for _, name := range obs.SortedLabelKeys(snap.Endpoints) {
		e := snap.Endpoints[name]
		lbl := []obs.Label{{Name: "endpoint", Value: name}}
		reqs = append(reqs, obs.Sample{Labels: lbl, Value: float64(e.Count)})
		errs = append(errs, obs.Sample{Labels: lbl, Value: float64(e.Errors)})
		durs = append(durs, histFromLatency(lbl, e.Latency, e.Count))
	}
	if len(reqs) > 0 {
		w.Counter("macsd_requests_total", "Requests by endpoint.", reqs...)
		w.Counter("macsd_request_errors_total", "Failed requests by endpoint.", errs...)
		w.Histogram("macsd_request_duration_seconds", "Request latency by endpoint.", durs...)
	}

	var stages []obs.HistSample
	for _, name := range obs.SortedLabelKeys(snap.Stages) {
		st := snap.Stages[name]
		stages = append(stages, histFromLatency(
			[]obs.Label{{Name: "stage", Value: name}}, st.Latency, st.Count))
	}
	if len(stages) > 0 {
		w.Histogram("macsd_stage_duration_seconds",
			"Pipeline stage latency, folded from request traces.", stages...)
	}

	var items []obs.Sample
	for _, outcome := range obs.SortedLabelKeys(snap.BatchItems) {
		items = append(items, obs.Sample{
			Labels: []obs.Label{{Name: "outcome", Value: outcome}},
			Value:  float64(snap.BatchItems[outcome]),
		})
	}
	if len(items) > 0 {
		w.Counter("macsd_batch_items_total", "Batch items by outcome.", items...)
	}

	w.Counter("macsd_cache_hits_total", "In-memory result cache hits.",
		obs.Sample{Value: float64(snap.Cache.Hits)})
	w.Counter("macsd_cache_misses_total", "In-memory result cache misses.",
		obs.Sample{Value: float64(snap.Cache.Misses)})
	w.Counter("macsd_cache_evictions_total", "In-memory result cache evictions.",
		obs.Sample{Value: float64(snap.Cache.Evictions)})
	w.Gauge("macsd_cache_entries", "In-memory result cache occupancy.",
		obs.Sample{Value: float64(snap.Cache.Entries)})
	w.Gauge("macsd_cache_capacity", "In-memory result cache capacity.",
		obs.Sample{Value: float64(snap.Cache.Capacity)})

	w.Gauge("macsd_persistent_cache_enabled", "1 when the disk cache is open.",
		obs.Sample{Value: boolGauge(snap.Persistent.Enabled)})
	if snap.Persistent.Enabled {
		w.Gauge("macsd_persistent_cache_entries", "Disk cache entries.",
			obs.Sample{Value: float64(snap.Persistent.Entries)})
		w.Gauge("macsd_persistent_cache_segments", "Disk cache segment files.",
			obs.Sample{Value: float64(snap.Persistent.Segments)})
		w.Gauge("macsd_persistent_cache_bytes", "Disk cache size in bytes.",
			obs.Sample{Value: float64(snap.Persistent.Bytes)})
		w.Counter("macsd_persistent_cache_hits_total", "Disk cache hits.",
			obs.Sample{Value: float64(snap.Persistent.Hits)})
		w.Counter("macsd_persistent_cache_misses_total", "Disk cache misses.",
			obs.Sample{Value: float64(snap.Persistent.Misses)})
		w.Counter("macsd_persistent_cache_writes_total", "Disk cache writes.",
			obs.Sample{Value: float64(snap.Persistent.Writes)})
		w.Counter("macsd_persistent_cache_invalidated_total",
			"Disk cache segments dropped on open for a stale fingerprint.",
			obs.Sample{Value: float64(snap.Persistent.Invalidated)})
	}

	w.Gauge("macsd_queue_workers", "Worker pool size.",
		obs.Sample{Value: float64(snap.Queue.Workers)})
	w.Gauge("macsd_queue_in_flight", "Jobs executing right now.",
		obs.Sample{Value: float64(snap.Queue.InFlight)})
	w.Gauge("macsd_queue_depth", "Jobs waiting in the queue.",
		obs.Sample{Value: float64(snap.Queue.Depth)})
	w.Gauge("macsd_queue_capacity", "Queue capacity before load shedding.",
		obs.Sample{Value: float64(snap.Queue.Capacity)})
	w.Counter("macsd_queue_rejected_total", "Jobs shed with 429 at a full queue.",
		obs.Sample{Value: float64(snap.Queue.Rejected)})
	w.Counter("macsd_queue_completed_total", "Jobs run to completion.",
		obs.Sample{Value: float64(snap.Queue.Done)})

	w.Counter("macsd_dedup_shared_total",
		"Requests served by attaching to another request's in-flight computation.",
		obs.Sample{Value: float64(snap.DedupShared)})
	w.Counter("macsd_pipeline_runs_total", "Actual executions of the analysis pipeline.",
		obs.Sample{Value: float64(snap.PipelineRuns)})
	w.Counter("macsd_sim_cycles_total", "Simulated clock cycles executed by fresh runs.",
		obs.Sample{Value: float64(snap.SimCycles)})

	var stalls []obs.Sample
	for _, cause := range obs.SortedLabelKeys(snap.StallCycles) {
		stalls = append(stalls, obs.Sample{
			Labels: []obs.Label{{Name: "cause", Value: cause}},
			Value:  float64(snap.StallCycles[cause]),
		})
	}
	if len(stalls) > 0 {
		w.Counter("macsd_stall_cycles_total",
			"Simulated cycle attribution by cause (issue cycles under \"issue\").", stalls...)
	}

	w.Counter("macsd_explore_sweeps_total", "Completed fresh design-space sweeps.",
		obs.Sample{Value: float64(snap.Explore.Sweeps)})
	w.Counter("macsd_explore_points_swept_total",
		"Grid points scored by the explore predictor across all sweeps.",
		obs.Sample{Value: float64(snap.Explore.Swept)})
	w.Counter("macsd_explore_points_pruned_total",
		"Grid points answered analytically without simulation.",
		obs.Sample{Value: float64(snap.Explore.Pruned)})
	w.Counter("macsd_explore_points_simulated_total",
		"Grid points promoted to exact simulation.",
		obs.Sample{Value: float64(snap.Explore.Simulated)})
	w.Gauge("macsd_explore_machines",
		"Distinct machine descriptions with warm evaluator state.",
		obs.Sample{Value: float64(snap.Explore.Machines)})

	if !snap.Runtime.SampledAt.IsZero() {
		rt := snap.Runtime
		w.Gauge("go_goroutines", "Goroutines at the last runtime sample.",
			obs.Sample{Value: float64(rt.Goroutines)})
		w.Gauge("go_heap_alloc_bytes", "Live heap bytes at the last runtime sample.",
			obs.Sample{Value: float64(rt.HeapAllocBytes)})
		w.Gauge("go_heap_sys_bytes", "Heap bytes obtained from the OS.",
			obs.Sample{Value: float64(rt.HeapSysBytes)})
		w.Gauge("go_heap_objects", "Live heap objects at the last runtime sample.",
			obs.Sample{Value: float64(rt.HeapObjects)})
		w.Counter("go_gc_runs_total", "Completed GC cycles.",
			obs.Sample{Value: float64(rt.GCRuns)})
		w.Counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.",
			obs.Sample{Value: rt.GCPauseTotalSecs})
		w.Gauge("go_last_gc_pause_seconds", "Most recent GC pause.",
			obs.Sample{Value: rt.LastGCPauseSecs})
	}

	return w.Bytes()
}

// histFromLatency converts a snapshot latency distribution (cumulative
// bucket counts in milliseconds, -1 encoding +Inf) into an exposition
// histogram in seconds. The snapshot's +Inf bucket becomes the series
// count; the sum is reconstructed from the mean.
func histFromLatency(labels []obs.Label, ls LatencySnapshot, count int64) obs.HistSample {
	h := obs.HistSample{Labels: labels, Count: count, Sum: ls.MeanMS / 1e3 * float64(count)}
	for _, b := range ls.Buckets {
		if b.LEMS < 0 {
			continue // +Inf: the writer appends it from Count
		}
		h.Buckets = append(h.Buckets, obs.Bucket{LE: b.LEMS / 1e3, CumCount: b.Count})
	}
	return h
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
