package obs

import (
	"runtime"
	"sync"
	"time"
)

// RuntimeStats is one sample of the Go runtime's health: the figures a
// capacity dashboard watches (heap, GC, goroutines). Zero value means
// "never sampled".
type RuntimeStats struct {
	SampledAt        time.Time
	Goroutines       int
	HeapAllocBytes   uint64
	HeapSysBytes     uint64
	HeapObjects      uint64
	GCRuns           uint32
	GCPauseTotalSecs float64
	LastGCPauseSecs  float64
}

// sampleRuntime reads the runtime counters once.
func sampleRuntime() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := RuntimeStats{
		SampledAt:        time.Now(),
		Goroutines:       runtime.NumGoroutine(),
		HeapAllocBytes:   m.HeapAlloc,
		HeapSysBytes:     m.HeapSys,
		HeapObjects:      m.HeapObjects,
		GCRuns:           m.NumGC,
		GCPauseTotalSecs: float64(m.PauseTotalNs) / 1e9,
	}
	if m.NumGC > 0 {
		s.LastGCPauseSecs = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e9
	}
	return s
}

// RuntimeSampler periodically snapshots the Go runtime so /metrics can
// serve heap, GC and goroutine figures without paying a ReadMemStats
// stop-the-world on every scrape.
type RuntimeSampler struct {
	mu    sync.Mutex
	stats RuntimeStats
	stop  chan struct{}
	done  chan struct{}
}

// StartRuntimeSampler samples immediately, then every interval until
// Stop. Intervals under a second are clamped to a second — ReadMemStats
// is not free.
func StartRuntimeSampler(interval time.Duration) *RuntimeSampler {
	if interval < time.Second {
		interval = time.Second
	}
	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.mu.Lock()
	s.stats = sampleRuntime()
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				st := sampleRuntime()
				s.mu.Lock()
				s.stats = st
				s.mu.Unlock()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Stats returns the most recent sample. Safe on a nil sampler, which
// reports a zero (never-sampled) snapshot — callers render that as
// "sampler off".
func (s *RuntimeSampler) Stats() RuntimeStats {
	if s == nil {
		return RuntimeStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Stop halts the sampling loop. Safe to call once; nil-safe.
func (s *RuntimeSampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}
