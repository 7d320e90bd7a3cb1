package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var seen [n]atomic.Int32
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachLowestIndexError: with several failing indices, the reported
// error must be the lowest-index one regardless of worker count, so a
// parallel sweep fails the same way a sequential one would.
func TestForEachLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var calls atomic.Int32
		err := ForEachCtx(context.Background(), workers, 50, func(i int) error {
			calls.Add(1)
			if i == 7 || i == 31 || i == 49 {
				return errors.New("boom at " + string(rune('0'+i/10)) + string(rune('0'+i%10)))
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if want := "boom at 07"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err.Error(), want)
		}
		if workers == 1 && calls.Load() != 8 {
			// Sequential mode stops at the first failure.
			t.Fatalf("sequential mode ran %d calls, want 8", calls.Load())
		}
	}
}

// TestForEachConcurrent exercises the claim/record paths under -race.
func TestForEachConcurrent(t *testing.T) {
	var sum atomic.Int64
	const n = 1000
	if err := ForEachCtx(context.Background(), 8, n, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForEachCtxNoCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 50
		var seen [n]atomic.Int32
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachCtxCancelStopsLaunches: after cancellation no new index is
// claimed; in-flight indices finish; the call reports ctx.Err().
func TestForEachCtxCancelStopsLaunches(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		const n = 10_000
		err := ForEachCtx(ctx, workers, n, func(i int) error {
			if calls.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Every worker may have already claimed one index when cancel
		// fires, but nothing close to the full space runs afterwards.
		if c := calls.Load(); int(c) >= n {
			t.Fatalf("workers=%d: all %d indices ran despite cancellation", workers, c)
		}
		cancel()
	}
}

// TestForEachCtxPreCancelled: a context cancelled before the call runs
// nothing at all.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForEachCtx(ctx, workers, 100, func(i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Parallel workers race one claim against the ctx check, but a
		// pre-cancelled context must stop the sequential path cold and
		// bound the parallel path to at most one claim per worker.
		if c := calls.Load(); int(c) > workers {
			t.Fatalf("workers=%d: %d calls ran on a dead context", workers, c)
		}
	}
	if err := ForEachCtx(ctx, 4, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty range on dead context: %v", err)
	}
}

// TestForEachCtxErrorBeatsCancel: an fn error recorded before
// cancellation is reported in preference to ctx.Err(), and the
// lowest-index rule still applies.
func TestForEachCtxErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForEachCtx(ctx, workers, 100, func(i int) error {
			if i == 3 {
				cancel()
				return boom
			}
			return nil
		})
		cancel()
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}
