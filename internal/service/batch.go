package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"macs/internal/obs"
	"macs/internal/par"
)

// This file is the batch half of the serving layer: POST /v1/batch
// accepts many kernels in one request, fans them out across the worker
// pool, and streams per-kernel results back as NDJSON as each one
// completes. Items reuse the per-kernel cache keys and singleflight
// group, so a mixed hot/cold batch (or duplicate kernels inside one
// batch) dedups exactly like the same kernels sent one at a time.

// maxBatchItems bounds one batch request; beyond it callers should
// split, which also keeps a single request's NDJSON stream and timeout
// budget sane.
const maxBatchItems = 256

// BatchRequest asks for many analyses in one request. Each item is a
// full AnalyzeRequest (source, iterations, priming); the ?tier= query
// parameter, when present, overrides every item's tier just as it
// overrides a single analyze request's.
type BatchRequest struct {
	Items []AnalyzeRequest `json:"items"`
}

// BatchItemResult is one NDJSON line of a batch response: the item's
// position in the request, and either its analysis or its error. Items
// fail independently — one invalid kernel costs one error line, never
// the whole batch.
type BatchItemResult struct {
	Index  int              `json:"index"`
	Result *AnalyzeResponse `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// AnalyzeBatch runs every item of a batch through the normal analyze
// path — cache, singleflight, worker pool — fanning out
// at most Workers items concurrently via par.ForEach, and calls emit
// with each item's result as it completes (emit is serialized; results
// arrive in completion order, identified by Index). Per-item failures
// are reported through their result line; AnalyzeBatch itself only
// fails for a malformed batch or a closed service.
func (s *Service) AnalyzeBatch(ctx context.Context, req BatchRequest, emit func(BatchItemResult)) error {
	start := time.Now()
	if err := s.checkBatch(req); err != nil {
		s.observe("batch", start, false, err)
		return err
	}

	// par.ForEachCtx clamps workers to the item count; bounding fan-out
	// to the pool size keeps one batch from flooding the queue and
	// shedding its own items. The context carries the client disconnect:
	// once it fires, items not yet claimed are never launched, so an
	// abandoned batch stops consuming the pool.
	var emitMu sync.Mutex
	err := par.ForEachCtx(ctx, s.cfg.Workers, len(req.Items), func(i int) error {
		ictx, sp := obs.Start(ctx, "batch-item")
		resp, err := s.Analyze(ictx, req.Items[i])
		sp.End()
		item := BatchItemResult{Index: i}
		switch {
		case err != nil:
			item.Error = err.Error()
			s.metrics.ObserveBatchItem("error")
		case resp.Cached:
			item.Result = &resp
			s.metrics.ObserveBatchItem("cached")
		default:
			item.Result = &resp
			s.metrics.ObserveBatchItem("ok")
		}
		emitMu.Lock()
		emit(item)
		emitMu.Unlock()
		return nil // per-item errors ride in the result line
	})
	s.observe("batch", start, false, err)
	return err
}

// checkBatch validates a batch request against the accept gate and the
// size limits without running anything — the HTTP layer calls it before
// committing to a streaming 200.
func (s *Service) checkBatch(req BatchRequest) error {
	if err := s.acceptGate(); err != nil {
		return err
	}
	if len(req.Items) == 0 {
		return fmt.Errorf("service: empty batch")
	}
	if len(req.Items) > maxBatchItems {
		return fmt.Errorf("service: batch of %d items exceeds the %d-item limit", len(req.Items), maxBatchItems)
	}
	return nil
}
