package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"macs/internal/service"
)

// defaultSetups is how many times an untraced run builds the service and
// warms it up; setup_s is the median.
const defaultSetups = 7

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	setups  int
	// tracedN is the number of requests the traced pass replays.
	tracedN int
	// traceDir receives the traced run's Chrome trace; empty skips it.
	traceDir string
}

// spec describes one workload to the harness.
type spec struct {
	// build generates the workload's inputs for a window of the given
	// length, before anything is timed.
	build func(seed int64, seconds float64, tracedN int) (workload, error)
	// tracedN is the fixed size of the traced pass.
	tracedN int
	// slice is the number of requests in one slice of the window, about
	// a second's worth: enough for ten latencies beyond the 90th
	// percentile.
	slice int
}

// A window is cut into slices of spec.slice requests, and its time and
// memory metrics are medians over the slices: interference from outside
// the process that covers fewer than half of them (a neighbour's burst,
// a hypervisor's steal) moves none of them.
var workloads = map[string]spec{
	"analyze-cold": {build: buildCold, tracedN: 1500, slice: 500},
	"analyze-hot":  {build: buildHot, tracedN: 3000, slice: 500},
	"explore":      {build: buildExplore, tracedN: 300, slice: 100},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// workload is one traffic mix. Its inputs are generated and encoded by
// spec.build; the methods only hand them out and check the answers.
type workload interface {
	// warmUp is the set-up work after the service is built: it returns
	// the simulated cycle counts the warm-up answers carry.
	warmUp(h http.Handler) ([]int64, error)
	// prepare runs after set-up and before the window, outside both.
	prepare(h http.Handler) error
	// len is the number of timed inputs generated.
	len() int
	// request builds timed request i.
	request(i int) *http.Request
	// observe checks the answer to timed request i inside the window (so
	// it must be cheap) and returns the cycle counts it reports.
	observe(i, status int, body []byte) ([]int64, error)
	// verify runs the expensive output checks on the first n answers
	// after the window, marking failures in failed (indexed like the
	// requests), and returns how many extra requests it checked and how
	// many of those failed.
	verify(h http.Handler, n int, failed []error) (attempted, nfailed int, err error)
	// tpErrPct is the model's mean |t_p - paper| / paper over the ten
	// case-study kernels, from answers the run already holds or fetches
	// through h.
	tpErrPct(h http.Handler) (float64, error)
	// traced replays the first n inputs layer by layer under t.
	traced(t *tracer, n int) error
	// basis names the untraced cost the traced self times reconcile
	// against: "latency" (mean latency) or "cpu" (CPU per request).
	basis() string
}

// serviceConfig is the service every workload measures: production
// defaults with the two-worker pool of a two-core host.
func serviceConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	cfg.QueueSize = 4
	return cfg
}

// recorder is a reusable http.ResponseWriter. The handler is done with
// it when ServeHTTP returns, so one recorder serves the whole window.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// post builds a POST request whose body is the concatenation of parts;
// shared parts (a kernel's encoded inputs) are read in place, not copied.
func post(path string, parts ...[]byte) *http.Request {
	readers := make([]io.Reader, len(parts))
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
	}
	req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(readers...))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// serve sends one request through h and returns the status and a copy
// of the body.
func serve(h http.Handler, req *http.Request) (int, []byte) {
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	return rec.status, bytes.Clone(rec.body.Bytes())
}

// setUp builds the service and runs the workload's warm-up, timed.
func setUp(wl workload) (*service.Service, http.Handler, []int64, time.Duration, error) {
	start := time.Now()
	svc := service.New(serviceConfig())
	h := service.NewHandler(svc)
	cycles, err := wl.warmUp(h)
	d := time.Since(start)
	if err != nil {
		svc.Close()
		return nil, nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return svc, h, cycles, d, nil
}

// setUpMedian sets up n times, tearing each service but the last down
// (and returning its memory) before the next, and returns the last
// service with the median set-up time.
func setUpMedian(wl workload, n int) (*service.Service, http.Handler, []int64, time.Duration, error) {
	var (
		svc    *service.Service
		h      http.Handler
		cycles []int64
		times  []float64
	)
	for i := 0; i < n; i++ {
		if svc != nil {
			svc.Close()
			svc, h = nil, nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		svc, h, cycles, d, err = setUp(wl)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return svc, h, cycles, time.Duration(median(times) * float64(time.Second)), nil
}

// slice is one stretch of a window: its requests' latencies, its
// duration, the process CPU time spent in it and the most memory the
// process held resident at the end of any of its requests.
type slice struct {
	lat      []time.Duration
	wall     time.Duration
	cpu      time.Duration
	resident uint64
}

// window is what one measured window of closed-loop requests saw.
type window struct {
	slices []slice
	wall   time.Duration
	allocs uint64 // heap bytes allocated
	gcs    uint64 // GC cycles completed
	// maxRSSMB is the process's lifetime peak RSS (set-up included) as
	// the kernel reports it.
	maxRSSMB float64
	failed   []error // per request, nil when the answer checked out
	cycles   [][]int64
	// exhausted reports that the inputs ran out before the window closed.
	exhausted bool
	requests  int
}

// runWindow sends the workload's timed requests one after another, each
// only after the previous answer, until the window closes (and at least
// digestWindow requests are done) or the inputs run out. Latency is timed
// around ServeHTTP alone; the answer check that follows it runs inside
// the window but outside the latency. Every sliceLen requests close a
// slice; a last slice cut short by the deadline is dropped unless it is
// the only one.
func runWindow(h http.Handler, wl workload, seconds float64, sliceLen int) *window {
	w := &window{
		failed:    make([]error, 0, wl.len()),
		cycles:    make([][]int64, 0, wl.len()),
		exhausted: true,
	}
	rec := newRecorder()
	mem := newResidentGauge()
	runtime.GC()
	m0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var cur slice
	curStart, curCPU := start, cpuTime()
	for i := 0; i < wl.len(); i++ {
		req := wl.request(i)
		rec.reset()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		now := time.Now()
		cur.lat = append(cur.lat, now.Sub(t0))
		cur.resident = max(cur.resident, mem.read())
		cycles, err := wl.observe(i, rec.status, rec.body.Bytes())
		w.failed = append(w.failed, err)
		w.cycles = append(w.cycles, cycles)
		closing := now.After(deadline) && i+1 >= digestWindow
		if len(cur.lat) == sliceLen || (closing && (2*len(cur.lat) >= sliceLen || len(w.slices) == 0)) {
			cpu := cpuTime()
			cur.wall, cur.cpu = now.Sub(curStart), cpu-curCPU
			w.slices = append(w.slices, cur)
			cur = slice{}
			curStart, curCPU = now, cpu
		}
		if closing {
			w.exhausted = false
			break
		}
	}
	if w.exhausted && len(w.slices) == 0 {
		cur.wall, cur.cpu = time.Since(curStart), cpuTime()-curCPU
		w.slices = append(w.slices, cur)
	}
	w.wall = time.Since(start)
	m1 := readRuntime()
	w.allocs = m1.allocs - m0.allocs
	w.gcs = m1.gcs - m0.gcs
	w.maxRSSMB = peakRSSMB()
	w.requests = len(w.failed)
	return w
}

// sliceMedian is the median over the window's slices of f.
func (w *window) sliceMedian(f func(s slice) float64) float64 {
	v := make([]float64, len(w.slices))
	for i, s := range w.slices {
		v[i] = f(s)
	}
	return median(v)
}

// throughput is the median slice's completed requests per second.
func (w *window) throughput() float64 {
	return w.sliceMedian(func(s slice) float64 { return float64(len(s.lat)) / s.wall.Seconds() })
}

// latency is the median slice's nearest-rank q-quantile latency, in ms.
func (w *window) latency(q float64) float64 {
	return w.sliceMedian(func(s slice) float64 { return ms(quantile(s.lat, q)) })
}

// meanLatency is the median slice's mean latency.
func (w *window) meanLatency() time.Duration {
	return time.Duration(w.sliceMedian(func(s slice) float64 {
		var sum time.Duration
		for _, d := range s.lat {
			sum += d
		}
		return float64(sum) / float64(len(s.lat))
	}))
}

// cpuPerRequest is the median slice's process CPU time per request.
func (w *window) cpuPerRequest() time.Duration {
	return time.Duration(w.sliceMedian(func(s slice) float64 { return float64(s.cpu) / float64(len(s.lat)) }))
}

// residentMB is the median slice's peak resident memory, in MiB.
func (w *window) residentMB() float64 {
	return w.sliceMedian(func(s slice) float64 { return float64(s.resident) / (1 << 20) })
}

// samples is the number of latencies the window measured.
func (w *window) samples() int {
	n := 0
	for _, s := range w.slices {
		n += len(s.lat)
	}
	return n
}

// quantile returns the nearest-rank q-quantile of lat.
func quantile(lat []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// runtimeStats are the cumulative runtime counters the harness reads.
type runtimeStats struct{ allocs, gcs uint64 }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// residentGauge reads how much memory the Go runtime holds resident:
// everything it has mapped, less what it has returned to the operating
// system. Unlike the kernel's peak RSS it can be read per slice.
type residentGauge struct{ s []metrics.Sample }

func newResidentGauge() *residentGauge {
	return &residentGauge{s: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
}

func (g *residentGauge) read() uint64 {
	metrics.Read(g.s)
	return g.s[0].Value.Uint64() - g.s[1].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest is the FNV-1a hash of a sequence of cycle counts.
func digest(groups ...[]int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, g := range groups {
		for _, c := range g {
			for i := range b {
				b[i] = byte(c >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestWindow is how many leading window requests the cycle digest of
// an untraced run covers; every window completes at least this many, so
// one seed always prints one digest.
const digestWindow = 20

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: its request accounting and its metrics.
type result struct {
	attempted, failed int
	metrics           map[string]metric
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// count folds per-request check outcomes into the accounting.
func (r *result) count(failed []error) {
	r.attempted += len(failed)
	for _, err := range failed {
		if err != nil {
			r.failed++
		}
	}
}

// summary is the JSON object printed as the last line of output.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
}

// report prints the metrics, sorted by name, one per line.
func (r *result) report(out io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(out, "  %-24s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// reportFailures prints the first few failed checks.
func reportFailures(out io.Writer, failed []error) {
	shown := 0
	for i, err := range failed {
		if err != nil && shown < 5 {
			fmt.Fprintf(out, "  request %d failed: %v\n", i, err)
			shown++
		}
	}
}
