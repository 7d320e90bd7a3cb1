package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"

	"macs/internal/lfk"
	"macs/internal/service"
)

// hotWL is analyze-hot: the ten case-study kernels with their paper
// inputs, after set-up has put every answer in the result cache, so no
// pipeline stage runs and the time belongs to the serving layer.
type hotWL struct {
	// bodies holds each kernel's request, encoded once and shared by
	// every request for it.
	bodies [][]byte
	order  []int
	// warm are the last warm-up's answers; ref the cached answers taken
	// after set-up, which every timed answer must equal byte for byte.
	warm, ref [][]byte
	cycles    []int64
}

// hotRate bounds the requests planned per second of window.
const hotRate = 5000

func buildHot(seed int64, seconds float64, tracedN int) (workload, error) {
	bodies, err := lfkBodies()
	if err != nil {
		return nil, err
	}
	count := max(int(seconds*hotRate), tracedN, digestWindow)
	return &hotWL{bodies: bodies, order: hotOrder(seed, count)}, nil
}

// warmUp fills the result cache with the ten analyses.
func (w *hotWL) warmUp(h http.Handler) ([]int64, error) {
	answers, cycles, err := warmLFK(h, w.bodies)
	w.warm, w.cycles = answers, cycles
	return cycles, err
}

// prepare takes each kernel's cached answer as the reference.
func (w *hotWL) prepare(h http.Handler) error {
	w.ref = make([][]byte, len(w.bodies))
	for i, body := range w.bodies {
		status, ans := serve(h, post("/v1/analyze", body))
		a, err := checkAnalyze(status, ans, int64(lfk.All()[i].Elements), 0)
		if err != nil {
			return fmt.Errorf("reference answer %d: %w", i, err)
		}
		if !a.Cached {
			return fmt.Errorf("reference answer %d not served from cache", i)
		}
		w.ref[i] = ans
	}
	return nil
}

func (w *hotWL) len() int { return len(w.order) }

func (w *hotWL) request(i int) *http.Request { return post("/v1/analyze", w.bodies[w.order[i]]) }

// observe requires the cached reference answer, byte for byte.
func (w *hotWL) observe(i, status int, body []byte) ([]int64, error) {
	k := w.order[i]
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	if !bytes.Equal(body, w.ref[k]) {
		return nil, fmt.Errorf("answer for kernel %d differs from its cached reference", k)
	}
	return []int64{w.cycles[k]}, nil
}

// verify checks that the cached answers equal the warm-up answers (but
// for the cached flag) and that GET /v1/lfk/{id} validates every kernel
// against its Go reference; each of those 20 checks counts as a request.
func (w *hotWL) verify(h http.Handler, _ int, _ []error) (int, int, error) {
	attempted, failed := 0, 0
	for i := range w.bodies {
		attempted++
		var warm, ref service.AnalyzeResponse
		if json.Unmarshal(w.warm[i], &warm) != nil || json.Unmarshal(w.ref[i], &ref) != nil {
			failed++
			continue
		}
		warm.Cached = true
		if !reflect.DeepEqual(warm, ref) {
			failed++
		}
	}
	for _, k := range lfk.All() {
		attempted++
		status, body := serve(h, httptest.NewRequest(http.MethodGet, "/v1/lfk/"+strconv.Itoa(k.ID), nil))
		var resp service.LFKResponse
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || !resp.Validated {
			failed++
		}
	}
	return attempted, failed, nil
}

func (w *hotWL) tpErrPct(http.Handler) (float64, error) { return tpErrPct(w.cycles), nil }

// traced fills the traced pass's own cache with the ten analyses (not
// recorded), then replays the hits.
func (w *hotWL) traced(t *tracer, n int) error {
	a := newAnalyzeTrace()
	fill := newTracer()
	for _, body := range w.bodies {
		if _, err := a.analyze(fill, body); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		cycles, err := a.analyze(t, w.bodies[w.order[i]])
		if err != nil {
			return fmt.Errorf("traced request %d: %w", i, err)
		}
		t.perRequest = append(t.perRequest, []int64{cycles})
	}
	return nil
}

func (w *hotWL) basis() string { return "latency" }
