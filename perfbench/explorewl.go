package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"macs"
	"macs/internal/explore"
	"macs/internal/lfk"
	"macs/internal/service"
)

// exploreWL is explore: one sweep per request over a fixed-size grid
// drawn from a 48-machine universe, each on a case-study kernel variant
// new to the process. Machines are shared across sweeps, programs never
// are, so the fast tier scores every point at its first-sight cost.
type exploreWL struct {
	sweeps []sweepInput
	// heads are the per-sweep parts of each body; the kernel's encoded
	// paper inputs follow, shared by every sweep of that kernel.
	heads  [][]byte
	primes [][]byte
	// universe is the set-up sweep's body.
	universe  [][]byte
	lfkBodies [][]byte
	// best is each timed sweep's rank-1 point, for the re-run check;
	// fresh marks the sweeps whose re-run uses a fresh simulator.
	best  []explore.Point
	fresh map[int]bool
}

// exploreRate bounds the sweeps planned per second of window.
const exploreRate = 400

var bodyTail = []byte("}")

func buildExplore(seed int64, seconds float64, tracedN int) (workload, error) {
	kernels := lfk.All()
	x := &exploreWL{}
	for _, k := range kernels {
		b, err := json.Marshal(lfkPriming(k))
		if err != nil {
			return nil, err
		}
		x.primes = append(x.primes, b)
	}
	count := max(int(seconds*exploreRate), tracedN, digestWindow)
	x.sweeps = genSweeps(seed, count)
	x.best = make([]explore.Point, count)
	x.fresh = sample(seed, count, exploreRate/2)
	for i, s := range x.sweeps {
		head, err := sweepHead(fmt.Sprintf("sweep%d", i), s.src, kernels[s.kernel], s.grid)
		if err != nil {
			return nil, err
		}
		x.heads = append(x.heads, head)
	}
	head, err := sweepHead("universe", kernels[0].Source, kernels[0], universeGrid())
	if err != nil {
		return nil, err
	}
	x.universe = [][]byte{head, x.primes[0], bodyTail}
	x.lfkBodies, err = lfkBodies()
	return x, err
}

// sweepHead encodes an explore request up to its "prime" value.
func sweepHead(name, src string, k *lfk.Kernel, grid explore.Grid) ([]byte, error) {
	b, err := json.Marshal(service.ExploreRequest{Name: name, Source: src, Iterations: int64(k.Elements), Grid: grid})
	if err != nil {
		return nil, err
	}
	// {..., "prime": {}, ...} is re-opened at its end so the shared
	// inputs can follow.
	b = bytes.TrimSuffix(b, bodyTail)
	return append(b, []byte(`,"prime":`)...), nil
}

// body returns sweep i's request body in one piece.
func (x *exploreWL) body(i int) []byte {
	s := x.sweeps[i]
	return bytes.Join([][]byte{x.heads[i], x.primes[s.kernel], bodyTail}, nil)
}

// warmUp sweeps the whole universe once over LFK1.
func (x *exploreWL) warmUp(h http.Handler) ([]int64, error) {
	status, body := serve(h, post("/v1/explore", x.universe...))
	size := universeGrid().Size()
	done, err := checkSweep(status, body, size, expectedTop(size))
	if err != nil {
		return nil, fmt.Errorf("universe sweep: %w", err)
	}
	return rankedCycles(done), nil
}

func (x *exploreWL) prepare(http.Handler) error { return nil }

func (x *exploreWL) len() int { return len(x.sweeps) }

func (x *exploreWL) request(i int) *http.Request {
	return post("/v1/explore", x.heads[i], x.primes[x.sweeps[i].kernel], bodyTail)
}

// expectedTop is the survivor count of a default-fraction sweep.
func expectedTop(points int) int {
	return max(int(math.Ceil(explore.DefaultTopFrac*float64(points))), 1)
}

// checkSweep checks an explore answer's NDJSON stream: one point event
// per simulated survivor, then a done summary of a fresh sweep that the
// fast tier pruned (no data-dependent fallback) to top survivors, ranked
// 1..top. The point events repeat the summary's survivors, so only the
// summary is decoded.
func checkSweep(status int, body []byte, points, top int) (*service.ExploreResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		if !bytes.HasPrefix(line, []byte(`{"type":"point"`)) {
			return nil, fmt.Errorf("unexpected event %.200s", line)
		}
	}
	var ev service.ExploreEvent
	if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil {
		return nil, fmt.Errorf("undecodable event: %w", err)
	}
	done := ev.Result
	switch {
	case ev.Type != "done" || done == nil:
		return nil, fmt.Errorf("last event %q (%s), want done", ev.Type, ev.Error)
	case done.Cached || done.Fallback:
		return nil, fmt.Errorf("cached %v fallback %v, want a fresh pruned sweep", done.Cached, done.Fallback)
	case done.Swept != points || done.Simulated != top || done.Pruned != points-top:
		return nil, fmt.Errorf("swept %d simulated %d pruned %d, want %d, %d, %d",
			done.Swept, done.Simulated, done.Pruned, points, top, points-top)
	case len(lines)-1 != top || len(done.Ranked) != top:
		return nil, fmt.Errorf("%d point events and %d ranked points, want %d", len(lines)-1, len(done.Ranked), top)
	}
	for r, p := range done.Ranked {
		if !p.Simulated || p.Rank != r+1 || p.Cycles <= 0 {
			return nil, fmt.Errorf("ranked point %d: simulated %v rank %d cycles %d", r, p.Simulated, p.Rank, p.Cycles)
		}
	}
	return done, nil
}

func rankedCycles(done *service.ExploreResponse) []int64 {
	out := make([]int64, len(done.Ranked))
	for i, p := range done.Ranked {
		out[i] = p.Cycles
	}
	return out
}

func (x *exploreWL) observe(i, status int, body []byte) ([]int64, error) {
	done, err := checkSweep(status, body, gridPoints, expectedTop(gridPoints))
	if err != nil {
		return nil, err
	}
	best := done.Ranked[0]
	best.Stats = nil
	x.best[i] = best
	return rankedCycles(done), nil
}

// verify re-runs every timed sweep's rank-1 point through the facade on
// that machine: a seed-chosen sample through macs.AnalyzeSourceVM on a
// fresh simulator, the rest through a pooled macs.Analyzer per machine,
// which answers exactly as AnalyzeSourceVM does at a fraction of the
// cost (a fresh simulator zeroes 16 MB).
func (x *exploreWL) verify(_ http.Handler, n int, failed []error) (int, int, error) {
	run := serviceConfig().VM
	kernels := lfk.All()
	analyzers := make(map[string]*macs.Analyzer)
	for i := 0; i < n; i++ {
		if failed[i] != nil {
			continue
		}
		s, best := x.sweeps[i], x.best[i]
		k := kernels[s.kernel]
		cfg := run.WithMachine(best.Machine)
		prime := primeFunc(lfkPriming(k))
		var res macs.Result
		var err error
		if x.fresh[i] {
			res, err = macs.AnalyzeSourceVM(s.src, int64(k.Elements), cfg, prime)
		} else {
			a, ok := analyzers[best.Fingerprint]
			if !ok {
				a = macs.NewAnalyzer(cfg)
				analyzers[best.Fingerprint] = a
			}
			res, err = a.AnalyzeSource(s.src, int64(k.Elements), prime)
		}
		switch {
		case err != nil:
			failed[i] = fmt.Errorf("rank-1 re-run: %w", err)
		case res.Stats.Cycles != best.Cycles:
			failed[i] = fmt.Errorf("rank-1 re-run took %d cycles, sweep answered %d", res.Stats.Cycles, best.Cycles)
		}
	}
	return 0, 0, nil
}

// tpErrPct analyzes the ten case-study kernels through the handler:
// explore's own answers are on other machines.
func (x *exploreWL) tpErrPct(h http.Handler) (float64, error) {
	_, cycles, err := warmLFK(h, x.lfkBodies)
	if err != nil {
		return 0, err
	}
	return tpErrPct(cycles), nil
}

// traced sweeps the universe once (not recorded), as set-up does, then
// replays the sweeps.
func (x *exploreWL) traced(t *tracer, n int) error {
	et := newExploreTrace()
	if _, err := et.sweep(newTracer(), bytes.Join(x.universe, nil)); err != nil {
		return fmt.Errorf("universe sweep: %w", err)
	}
	for i := 0; i < n; i++ {
		resp, err := et.sweep(t, x.body(i))
		if err != nil {
			return fmt.Errorf("traced sweep %d: %w", i, err)
		}
		t.perRequest = append(t.perRequest, rankedCycles(resp))
	}
	return nil
}

// basis is CPU per request: the service fans a sweep's stages out over
// its two workers, so latency undercounts the work.
func (x *exploreWL) basis() string { return "cpu" }
