// Package par provides the bounded fan-out primitive behind the parallel
// sweep runners: experiments tables, calibration, and lfkbench all map a
// fixed index space over a small worker pool with it.
//
// The contract is deliberately deterministic. Results land by index, so a
// parallel sweep assembles the same output slice as a sequential one; on
// error the lowest-index failure wins, matching what a sequential loop
// would have reported first.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count knob: n < 1 selects GOMAXPROCS
// (use all cores), anything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachCtx runs fn(i) for i in [0,n) on at most `workers` goroutines
// and waits for all of them. With workers <= 1 it is a plain sequential
// loop that stops at the first error. With workers > 1 every index runs
// (no early stop on error; sweep items are cheap and independent) and
// the error with the lowest index is returned, so the reported failure
// does not depend on goroutine scheduling.
//
// Once ctx is cancelled no new index is launched — indices already
// running finish (fn is never interrupted mid-flight; pass ctx into fn
// for that), and indices never claimed simply do not run. It returns the
// lowest-index fn error if one occurred before cancellation took effect,
// otherwise ctx.Err() when the sweep was cut short, otherwise nil. The
// sequential path checks the context before every index, matching the
// parallel claim loop. Callers without a deadline pass
// context.Background().
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	claim := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < firstIdx {
			firstIdx = i
			firstErr = err
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
