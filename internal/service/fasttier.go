package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"macs"
	"macs/internal/obs"
)

// This file is the serving side of the analytical fast tier: the
// tier=fast path answers from the compiled schedule without simulating,
// and the tier=auto path serves that answer immediately while an
// asynchronous exact simulation verifies it, feeding the fast_tier
// section of /metrics.

// fastTierTracker counts fast-tier serving outcomes and the auto tier's
// verifications.
type fastTierTracker struct {
	served     atomic.Int64
	fallbacks  atomic.Int64
	verified   atomic.Int64
	mismatches atomic.Int64
}

func (t *fastTierTracker) snapshot() FastTierStats {
	return FastTierStats{
		Served:     t.served.Load(),
		Fallbacks:  t.fallbacks.Load(),
		Verified:   t.verified.Load(),
		Mismatches: t.mismatches.Load(),
	}
}

// analyzeFast serves one request through the analytical tier only. The
// cache key is distinct from the exact tier's — the two answer different
// questions — but shared between tier=fast and tier=auto requests, which
// compute the same prediction. The second return value reports whether
// this call ran a fresh prediction (as opposed to a cache hit or a
// singleflight attach); the serving counters and the auto tier's
// verification key off it so a kernel replayed N times lands one served
// count and one verification, not N.
func (s *Service) analyzeFast(ctx context.Context, req AnalyzeRequest, tier macs.Tier) (AnalyzeResponse, bool, error) {
	start := time.Now()
	key, err := s.key("analyze-fast", req.Source, req.Iterations, req.Prime)
	if err != nil {
		s.observe("analyze-fast", start, false, err)
		return AnalyzeResponse{}, false, err
	}
	v, cached, fresh, err := s.do(ctx, "analyze-fast", key, decodeJSON[AnalyzeResponse](), func() (any, error) {
		res, err := s.analyzer.PredictSourceCtx(ctx, req.Source, req.Iterations, req.Prime.fastInts())
		if err != nil && errors.Is(err, macs.ErrDataDependent) {
			// The single-path replay refused: try the path enumerator,
			// which serves a static [lo, hi] envelope when the
			// data-dependent control flow is boundedly enumerable.
			res, err = s.analyzer.PredictSourceIntervalCtx(ctx, req.Source, req.Iterations, req.Prime.fastInts())
		}
		if err != nil {
			return nil, err
		}
		p := res.Prediction
		return &AnalyzeResponse{
			Bounds:         boundsView(res.Analysis),
			PredictedCPL:   p.CPL,
			Interval:       p.Interval,
			Paths:          p.Paths,
			PredictedCPLLo: p.CPLLo,
			PredictedCPLHi: p.CPLHi,
			CyclesLo:       p.CyclesLo,
			CyclesHi:       p.CyclesHi,
			Cycles:         p.Cycles,
			Iterations:     res.Iterations,
			Report:         res.Report(),
			Attribution:    p.Attr.Totals(),
		}, nil
	})
	s.observe("analyze-fast", start, cached, err)
	if err != nil {
		return AnalyzeResponse{}, false, err
	}
	resp := *v.(*AnalyzeResponse)
	resp.Tier = tier.String()
	resp.Cached = cached
	if fresh {
		// Cache hits and singleflight waiters do not count: a kernel
		// replayed N times is one computation, not N.
		s.fastTier.served.Add(1)
	}
	return resp, fresh, nil
}

// analyzeAuto serves the fast prediction immediately and verifies it
// against the simulator asynchronously. A program whose timing the fast
// tier cannot model falls back to the exact tier inline. Only a fresh
// prediction spawns a verification: a cached fast answer was already
// verified when it was computed, so replaying it must not count again.
func (s *Service) analyzeAuto(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	resp, fresh, err := s.analyzeFast(ctx, req, macs.TierAuto)
	if err != nil {
		if errors.Is(err, macs.ErrDataDependent) {
			s.fastTier.fallbacks.Add(1)
			return s.analyzeExact(ctx, req)
		}
		return AnalyzeResponse{}, err
	}
	if fresh {
		s.verifyAsync(ctx, req, resp)
	}
	return resp, nil
}

// verifyAsync runs the exact tier in the background for a fast answer
// already served, and counts a mismatch when the simulated cycles differ
// from the prediction (or, for an interval answer, fall outside it). The
// exact run goes through the normal cache and worker pool, so a later
// tier=exact request for the same source is a cache hit. Registration is
// gated on the service's closed flag under closeMu: either the
// verification registers before Close flips the flag (and Close's
// verifyWG.Wait drains it), or it observes the flag and never starts —
// verifyWG.Add can no longer race Close's Wait into a closed pool.
func (s *Service) verifyAsync(rctx context.Context, req AnalyzeRequest, fast AnalyzeResponse) {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.verifyWG.Add(1)
	s.closeMu.Unlock()
	go func() {
		defer s.verifyWG.Done()
		// WithoutCancel keeps the requester's trace values (so the
		// verification's spans land on the originating trace while it is
		// live) but detaches its deadline: the verification outlives the
		// request that spawned it.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(rctx), s.cfg.RequestTimeout)
		defer cancel()
		ctx, sp := obs.Start(ctx, "verify-exact")
		exact, err := s.analyzeExact(ctx, req)
		sp.End()
		if err != nil {
			s.log.Warn("fast-tier verification failed", "err", err)
			return
		}
		s.fastTier.verified.Add(1)
		mismatch := exact.Cycles != fast.Cycles
		if fast.Interval {
			mismatch = exact.Cycles < fast.CyclesLo || exact.Cycles > fast.CyclesHi
		}
		if mismatch {
			s.fastTier.mismatches.Add(1)
			s.log.Warn("fast-tier prediction does not match the simulation",
				"predicted_cycles", fast.Cycles,
				"cycles_lo", fast.CyclesLo,
				"cycles_hi", fast.CyclesHi,
				"simulated_cycles", exact.Cycles,
			)
		}
	}()
}
