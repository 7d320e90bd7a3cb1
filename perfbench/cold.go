package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"macs"
	"macs/internal/service"
)

// coldWL is analyze-cold: every timed request is a generated kernel the
// process has never seen, so every pipeline stage runs once per request
// and the result cache only inserts (and, past its capacity, evicts).
type coldWL struct {
	bodies    [][]byte
	trips     []int64
	lfkBodies [][]byte
	// warmCycles are the last warm-up's simulated LFK cycles.
	warmCycles []int64
	// resample marks the requests whose answers are re-run after the
	// window; resampled holds those answers.
	resample  map[int]bool
	resampled map[int]analyzeAnswer
}

// coldRate bounds the inputs generated per second of window: about
// three times the rate the service reaches on a two-core host. A window
// that exhausts them ends early, and the output says so.
const coldRate = 1500

func buildCold(seed int64, seconds float64, tracedN int) (workload, error) {
	count := max(int(seconds*coldRate), tracedN, digestWindow)
	kernels := genCold(seed, count)
	c := &coldWL{
		bodies:    make([][]byte, len(kernels)),
		trips:     make([]int64, len(kernels)),
		resampled: make(map[int]analyzeAnswer),
	}
	for i, k := range kernels {
		b, err := json.Marshal(service.AnalyzeRequest{
			Source:     k.src,
			Iterations: k.trips,
			Prime:      service.Priming{Ints: map[string]int64{"N": k.n}},
		})
		if err != nil {
			return nil, err
		}
		c.bodies[i], c.trips[i] = b, k.trips
	}
	c.resample = sample(seed, count, coldRate/2)
	var err error
	c.lfkBodies, err = lfkBodies()
	return c, err
}

// warmUp is ten case-study analyses.
func (c *coldWL) warmUp(h http.Handler) ([]int64, error) {
	_, cycles, err := warmLFK(h, c.lfkBodies)
	c.warmCycles = cycles
	return cycles, err
}

func (c *coldWL) prepare(http.Handler) error { return nil }

func (c *coldWL) len() int { return len(c.bodies) }

func (c *coldWL) request(i int) *http.Request { return post("/v1/analyze", c.bodies[i]) }

// observe checks the answer is a fresh exact analysis of the expected
// trip count that obeys the hierarchy within one CPL (generated loops
// are short enough for wrap-around to show).
func (c *coldWL) observe(i, status int, body []byte) ([]int64, error) {
	a, err := checkAnalyze(status, body, c.trips[i], 1)
	if err != nil {
		return nil, err
	}
	if a.Cached {
		return nil, fmt.Errorf("answer served from cache for a program never sent before")
	}
	if c.resample[i] {
		c.resampled[i] = a
	}
	return []int64{a.Cycles}, nil
}

// verify re-runs the sampled answers' programs through
// macs.AnalyzeSourceVM on a fresh simulator: cycles and stall attribution
// must match what the service served.
func (c *coldWL) verify(_ http.Handler, n int, failed []error) (int, int, error) {
	vmCfg := serviceConfig().VM
	for i, served := range c.resampled {
		if i >= n || failed[i] != nil {
			continue
		}
		var req service.AnalyzeRequest
		if err := json.Unmarshal(c.bodies[i], &req); err != nil {
			return 0, 0, err
		}
		res, err := macs.AnalyzeSourceVM(req.Source, req.Iterations, vmCfg, primeFunc(req.Prime))
		switch {
		case err != nil:
			failed[i] = fmt.Errorf("re-run: %w", err)
		case res.Stats.Cycles != served.Cycles:
			failed[i] = fmt.Errorf("re-run took %d cycles, service answered %d", res.Stats.Cycles, served.Cycles)
		case !reflect.DeepEqual(res.Stats.Attr.Totals(), served.Attribution):
			failed[i] = fmt.Errorf("re-run attribution %v, service answered %v", res.Stats.Attr.Totals(), served.Attribution)
		}
	}
	return 0, 0, nil
}

func (c *coldWL) tpErrPct(http.Handler) (float64, error) { return tpErrPct(c.warmCycles), nil }

func (c *coldWL) traced(t *tracer, n int) error {
	a := newAnalyzeTrace()
	for i := 0; i < n; i++ {
		cycles, err := a.analyze(t, c.bodies[i])
		if err != nil {
			return fmt.Errorf("traced request %d: %w", i, err)
		}
		t.perRequest = append(t.perRequest, []int64{cycles})
	}
	return nil
}

func (c *coldWL) basis() string { return "latency" }
