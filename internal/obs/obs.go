// Package obs is the observability layer of the serving stack: request
// traces built from lightweight context-propagated spans, a metrics
// registry that renders each family it declares as Prometheus text
// exposition or JSON, a validating exposition parser, a Chrome
// trace_event exporter that merges pipeline spans with the simulator's
// per-lane timing rows, and a periodic Go-runtime sampler.
//
// The span API is designed so the pipeline can be instrumented
// unconditionally: when no Trace rides the context, Start is a single
// context.Value lookup returning a nil *Span whose End is a no-op —
// nanoseconds, no allocation — so the hot paths (and their benchmarks)
// pay nothing when tracing is off.
//
//	ctx, sp := obs.Start(ctx, "simulate")
//	... stage work ...
//	sp.End()
//
// Spans nest through the context: a Start under an already-started span
// records that span as its parent, so one request's trace reconstructs
// the full HTTP → stage → sub-stage hierarchy. The package is
// stdlib-only and imports nothing from the rest of the module, so every
// layer (vm included) can depend on it.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// Trace is one request's collection of completed (and in-progress)
// spans, plus optionally the simulator's per-lane timing events anchored
// under one span. It is safe for concurrent use: batch fan-out items and
// asynchronous verifications may start spans from several goroutines.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []spanRecord
	lanes *laneSet // nil until AddLanes
}

// laneSet is one run's lane events, built on first use. The builder runs
// outside the trace's lock, and once however many Views race for it.
type laneSet struct {
	once   sync.Once
	build  func() []LaneEvent
	events []LaneEvent
	built  atomic.Bool
}

func (l *laneSet) get() []LaneEvent {
	l.once.Do(func() {
		l.events, l.build = l.build(), nil
		l.built.Store(true)
	})
	return l.events
}

// spanRecord is the immutable part of a span kept on the trace.
type spanRecord struct {
	name   string
	parent int // index into spans, -1 for roots
	start  time.Time
	dur    time.Duration
	ended  bool
}

// Span is one live span handle. A nil *Span is valid and inert — every
// method is a no-op — which is what Start returns when the context
// carries no Trace.
type Span struct {
	trace *Trace
	idx   int
}

// LaneEvent is one simulator lane occupancy interval, in clock cycles
// relative to the start of the run. Lane names the row ("add pipe");
// Args ride into the Chrome export verbatim.
type LaneEvent struct {
	Lane  string         `json:"lane"`
	Name  string         `json:"name"`
	Start int64          `json:"start"`
	Dur   int64          `json:"dur"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewID returns a fresh 16-hex-character trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock rather than take down request handling.
		now := time.Now().UnixNano()
		for i := 0; i < 8; i++ {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewTrace starts an empty trace. An empty id gets a fresh one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// Start returns the trace's creation time.
func (t *Trace) Start() time.Time { return t.start }

// startSpan records a new span under the given parent index.
func (t *Trace) startSpan(name string, parent int) *Span {
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, spanRecord{name: name, parent: parent, start: time.Now()})
	t.mu.Unlock()
	return &Span{trace: t, idx: idx}
}

// End completes the span. Safe on nil spans and idempotent: only the
// first End records the duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	r := &t.spans[s.idx]
	if !r.ended {
		r.ended = true
		r.dur = time.Since(r.start)
	}
	t.mu.Unlock()
}

// Duration reports how long the span ran: its final length once End has
// run, its length so far before. Zero on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.spans[s.idx]
	if !r.ended {
		return time.Since(r.start)
	}
	return r.dur
}

// AddLanes attaches simulator lane events to the trace; the Chrome
// export anchors their cycle 0 at the start of the trace's "simulate"
// span. The events come from build, which View runs at most once and
// only when the trace is viewed, so a trace nobody reads never pays for
// its lanes. Later calls replace earlier ones — a trace carries the
// lanes of its one simulated run.
func (t *Trace) AddLanes(build func() []LaneEvent) {
	if t == nil || build == nil {
		return
	}
	t.mu.Lock()
	t.lanes = &laneSet{build: build}
	t.mu.Unlock()
}

// LanesPending reports whether lanes attached with AddLanes await their
// first View, their builder not yet run.
func (t *Trace) LanesPending() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	l := t.lanes
	t.mu.Unlock()
	return l != nil && !l.built.Load()
}

// SpanView is one completed span in a trace snapshot: its name, start
// offset from the trace's origin, duration, and parent span index (-1
// for roots). Offsets and durations are in microseconds, the Chrome
// trace_event unit.
type SpanView struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Complete bool   `json:"complete"`
}

// TraceView is the JSON-shaped snapshot of a trace: what the service
// embeds in a response's optional trace block.
type TraceView struct {
	ID    string     `json:"id"`
	Spans []SpanView `json:"spans"`
	// Lanes carries the simulator's per-lane events of the traced run,
	// in cycles; empty when the request ran no simulation.
	Lanes []LaneEvent `json:"lanes,omitempty"`
}

// View snapshots the trace. In-progress spans report their duration so
// far with Complete false.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	v := TraceView{ID: t.id, Spans: make([]SpanView, len(t.spans))}
	for i, r := range t.spans {
		d := r.dur
		if !r.ended {
			d = time.Since(r.start)
		}
		v.Spans[i] = SpanView{
			Name:     r.name,
			Parent:   r.parent,
			StartUS:  r.start.Sub(t.start).Microseconds(),
			DurUS:    d.Microseconds(),
			Complete: r.ended,
		}
	}
	l := t.lanes
	t.mu.Unlock()
	if l != nil {
		v.Lanes = append(v.Lanes, l.get()...)
	}
	return v
}

// StageDurations folds the trace's completed spans into a per-name
// duration sum. Nested spans each contribute their own time (the
// caller's histogram semantics are per-stage, not exclusive-time).
func (t *Trace) StageDurations() map[string]time.Duration { return t.durations(true) }

// NestedDurations is StageDurations over the spans that have a parent:
// a request's stages without the request's own root span — what the
// service feeds its per-stage latency histogram.
func (t *Trace) NestedDurations() map[string]time.Duration { return t.durations(false) }

func (t *Trace) durations(roots bool) map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(t.spans))
	for _, r := range t.spans {
		if r.ended && (roots || r.parent >= 0) {
			out[r.name] += r.dur
		}
	}
	return out
}
