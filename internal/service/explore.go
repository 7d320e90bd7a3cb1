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
// cached — memory LRU plus the persistent disk cache — under a key that
// includes the grid, so a repeated sweep replays its events without
// running anything; the per-machine simulator pools and prediction memos
// live in one shared evaluator registry so even cold sweeps reuse warm
// machine state.

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
		Run:        s.cfg.VM,
		Compiler:   s.cfg.Compiler,
		TopFrac:    req.TopFrac,
		MinTop:     req.MinTop,
		Workers:    s.cfg.Workers,
		Evaluators: s.explorers,
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
		s.observe("explore", start, false, err)
		return err
	}

	key, err := s.key("explore", req.Source, req.Iterations, req.Prime, req.Grid, req.TopFrac, req.MinTop)
	if err != nil {
		s.observe("explore", start, false, err)
		return err
	}
	if v, ok := s.cache.Get(key); ok {
		s.replayExplore(*v.(*ExploreResponse), emit)
		s.observe("explore", start, true, nil)
		return nil
	}
	if v, ok := s.diskGet(key, decodeJSON[ExploreResponse]()); ok {
		s.cache.Put(key, v)
		s.replayExplore(*v.(*ExploreResponse), emit)
		s.observe("explore", start, true, nil)
		return nil
	}

	sw, err := eng.Sweep(ctx, explore.Request{
		Name:       req.Name,
		Source:     req.Source,
		Iterations: req.Iterations,
		Ints:       req.Prime.fastInts(),
		Prime:      vmPrime(req.Prime),
		Observe: func(p explore.Point) {
			emit(ExploreEvent{Type: "point", Point: &p})
		},
	})
	if err != nil {
		s.observe("explore", start, false, err)
		return err
	}
	s.exploreSweeps.Add(1)
	s.exploreSwept.Add(int64(sw.Swept))
	s.explorePruned.Add(int64(sw.Pruned))
	s.exploreSimulated.Add(int64(sw.Simulated))

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
	dec := decodeJSON[ExploreResponse]()
	s.cache.Put(key, resp)
	s.diskPut(key, dec, resp)
	emit(ExploreEvent{Type: "done", Result: resp})
	s.observe("explore", start, false, nil)
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

// vmPrime adapts a Priming to the raw simulator callback the explore
// engine takes (the engine runs below the macs facade). macs.CPU is an
// alias of vm.CPU, so the facade-shaped primeFunc applies directly.
func vmPrime(p Priming) func(*vm.CPU) error {
	return p.primeFunc()
}

// ExploreStats is the explore section of /metrics.
type ExploreStats struct {
	// Sweeps counts completed fresh sweeps (cached replays excluded).
	Sweeps int64 `json:"sweeps"`
	// Swept, Pruned and Simulated total the grid points those sweeps
	// scored, answered analytically, and simulated exactly.
	Swept     int64 `json:"points_swept"`
	Pruned    int64 `json:"points_pruned"`
	Simulated int64 `json:"points_simulated"`
	// Machines is the number of distinct machine descriptions with warm
	// evaluator state (simulator pool + prediction memo).
	Machines int `json:"machines"`
}

func (s *Service) exploreStats() ExploreStats {
	return ExploreStats{
		Sweeps:    s.exploreSweeps.Load(),
		Swept:     s.exploreSwept.Load(),
		Pruned:    s.explorePruned.Load(),
		Simulated: s.exploreSimulated.Load(),
		Machines:  s.explorers.Machines(),
	}
}
