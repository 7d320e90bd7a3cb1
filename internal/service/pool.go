package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Errors returned by Pool.Submit. ErrQueueFull is the backpressure
// signal: the HTTP layer maps it to 429 + Retry-After.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: pool closed")
)

// task is one queued unit of work. ctx is checked by the job closure
// before expensive work starts, so requests abandoned by every waiter
// are skipped instead of executed.
type task struct {
	ctx context.Context
	fn  func(context.Context)
}

// Pool is a bounded worker pool: a fixed number of goroutines draining a
// bounded queue. Submit never blocks — when the queue is full it fails
// fast with ErrQueueFull so callers can shed load instead of piling up.
type Pool struct {
	queue chan task
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	inFlight atomic.Int64
	rejected atomic.Int64
	done     atomic.Int64
	workers  int
}

// NewPool starts workers goroutines over a queue of queueSize pending
// jobs. Both are clamped to at least 1.
func NewPool(workers, queueSize int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueSize < 1 {
		queueSize = 1
	}
	p := &Pool{queue: make(chan task, queueSize), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		p.inFlight.Add(1)
		t.fn(t.ctx)
		p.inFlight.Add(-1)
		p.done.Add(1)
	}
}

// Submit enqueues fn for execution with ctx. It returns immediately:
// ErrQueueFull if the queue is at capacity, ErrClosed after Close.
func (p *Pool) Submit(ctx context.Context, fn func(context.Context)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.queue <- task{ctx: ctx, fn: fn}:
		return nil
	default:
		p.rejected.Add(1)
		return ErrQueueFull
	}
}

// Close stops accepting new work and blocks until every queued and
// in-flight job has finished — the drain half of graceful shutdown.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// PoolStats is a point-in-time snapshot of the pool, read by the
// macsd_queue_* families on /metrics.
type PoolStats struct {
	Workers  int
	InFlight int64
	Depth    int
	Capacity int
	Rejected int64
	Done     int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:  p.workers,
		InFlight: p.inFlight.Load(),
		Depth:    len(p.queue),
		Capacity: cap(p.queue),
		Rejected: p.rejected.Load(),
		Done:     p.done.Load(),
	}
}
