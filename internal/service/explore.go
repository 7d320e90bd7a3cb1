package service

import (
	"context"
	"fmt"
	"time"

	"macs/internal/explore"
	"macs/internal/vm"
)

// This file is the design-space half of the serving layer: POST
// /v1/explore accepts a kernel and a machine-parameter grid, sweeps the
// grid through the two-stage explore engine (predictor score every
// point, simulate the top fraction), and streams each simulated survivor
// back as an NDJSON event as its measurement completes. Whole sweeps are
// cached — memory LRU plus the persistent disk cache, read through the
// same lookup as every other endpoint — under a key that includes the
// grid, so a repeated sweep replays its events without running anything.
// A sweep that misses keeps nothing for the next: it compiles, predicts
// and simulates from scratch.

// maxExplorePoints bounds one sweep request. 4096 points keep a single
// request's wall time and response size sane; larger spaces should be
// split along an axis.
const maxExplorePoints = 4096

// ExploreRequest asks for one grid sweep over one kernel.
type ExploreRequest struct {
	// Name labels the sweep in events and reports; informational.
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// Iterations converts cycles to CPL; 0 skips the conversion.
	Iterations int64   `json:"iterations,omitempty"`
	Prime      Priming `json:"prime,omitempty"`
	// Grid declares the swept machine space. An empty grid sweeps exactly
	// one point: the service's configured machine.
	Grid explore.Grid `json:"grid"`
	// TopFrac is the fraction of points promoted to exact simulation
	// (0 takes the engine default, 5%); MinTop floors the survivor count.
	TopFrac float64 `json:"top_frac,omitempty"`
	MinTop  int     `json:"min_top,omitempty"`
}

// ExploreResponse is the terminal summary of a sweep — and the unit the
// result cache stores. Ranked holds only the simulated survivors,
// best-first; pruned points are counted but not shipped (their scores
// are reproducible by re-running the sweep).
type ExploreResponse struct {
	Name      string `json:"name,omitempty"`
	Swept     int    `json:"swept"`
	Pruned    int    `json:"pruned"`
	Simulated int    `json:"simulated"`
	// Fallback reports that the program was data-dependent and every
	// point was simulated (no pruning).
	Fallback bool `json:"fallback,omitempty"`
	// Ranked is the simulated survivors ordered by measured cycles.
	Ranked []explore.Point `json:"ranked"`
	Cached bool            `json:"cached"`
}

// ExploreEvent is one NDJSON line of an explore response: a "point"
// event per simulated survivor (completion order, unranked), then one
// terminal "done" event carrying the summary — or "error" if the sweep
// failed after the stream began.
type ExploreEvent struct {
	Type   string           `json:"type"`
	Point  *explore.Point   `json:"point,omitempty"`
	Result *ExploreResponse `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// checkExplore validates a request and builds its engine without running
// anything — the HTTP layer calls it before committing to a streaming
// 200. The grid's base machine defaults to the service's configured
// machine, so an axis-free request sweeps exactly the machine /v1/analyze
// simulates.
func (s *Service) checkExplore(req ExploreRequest) (*explore.Engine, error) {
	if err := s.acceptGate(); err != nil {
		return nil, err
	}
	if req.Source == "" {
		return nil, fmt.Errorf("service: explore request has no source")
	}
	if n := req.Grid.Size(); n > maxExplorePoints {
		return nil, fmt.Errorf("service: grid of %d points exceeds the %d-point limit", n, maxExplorePoints)
	}
	if req.TopFrac < 0 || req.TopFrac > 1 {
		return nil, fmt.Errorf("service: top_frac %g outside [0,1]", req.TopFrac)
	}
	if req.Grid.Base == (vm.Machine{}) {
		req.Grid.Base = s.cfg.VM.Machine
	}
	return explore.New(req.Grid, explore.Options{
		Run:     s.cfg.VM,
		TopFrac: req.TopFrac,
		MinTop:  req.MinTop,
		Workers: s.cfg.Workers,
	})
}

// Explore sweeps the request's grid over its kernel, calling emit with a
// "point" event per simulated survivor as it completes and a terminal
// "done" event with the ranked summary (emit is serialized). Cached
// sweeps — from either cache level — replay their survivor events in
// rank order and mark the summary Cached.
func (s *Service) Explore(ctx context.Context, req ExploreRequest, emit func(ExploreEvent)) error {
	start := time.Now()
	eng, err := s.checkExplore(req)
	if err != nil {
		s.logRequest("explore", start, false, err)
		return err
	}

	key, err := s.key("explore", req.Source, req.Iterations, req.Prime, req.Grid, req.TopFrac, req.MinTop)
	if err != nil {
		s.logRequest("explore", start, false, err)
		return err
	}
	dec := decodeJSON[ExploreResponse]()
	if v, ok := s.lookup(ctx, key, dec); ok {
		s.replayExplore(*v.(*ExploreResponse), emit)
		s.logRequest("explore", start, true, nil)
		return nil
	}

	sw, err := eng.Sweep(ctx, explore.Request{
		Name:       req.Name,
		Source:     req.Source,
		Iterations: req.Iterations,
		Inputs:     req.Prime,
		Observe: func(p explore.Point) {
			emit(ExploreEvent{Type: "point", Point: &p})
		},
	})
	if err != nil {
		s.logRequest("explore", start, false, err)
		return err
	}
	s.metrics.exploreSweeps.Add("", 1)
	s.metrics.exploreSwept.Add("", float64(sw.Swept))
	s.metrics.explorePruned.Add("", float64(sw.Pruned))
	s.metrics.exploreSimulated.Add("", float64(sw.Simulated))

	resp := &ExploreResponse{
		Name:      sw.Name,
		Swept:     sw.Swept,
		Pruned:    sw.Pruned,
		Simulated: sw.Simulated,
		Fallback:  sw.Fallback,
	}
	for _, p := range sw.Ranked() {
		if !p.Simulated {
			break
		}
		resp.Ranked = append(resp.Ranked, p)
	}
	s.cache.Put(key, resp)
	s.diskPut(key, dec, resp)
	emit(ExploreEvent{Type: "done", Result: resp})
	s.logRequest("explore", start, false, nil)
	return nil
}

// replayExplore re-emits a cached sweep's event stream: each ranked
// survivor as a point event, then the summary marked Cached.
func (s *Service) replayExplore(resp ExploreResponse, emit func(ExploreEvent)) {
	for i := range resp.Ranked {
		emit(ExploreEvent{Type: "point", Point: &resp.Ranked[i]})
	}
	resp.Cached = true
	emit(ExploreEvent{Type: "done", Result: &resp})
}
