package vm

import (
	"fmt"

	"macs/internal/obs"
)

// traceRing is a bounded ring buffer of TraceEvents: cheap always-on
// tracing for long runs, keeping only the most recent events.
type traceRing struct {
	buf     []TraceEvent
	pos     int
	full    bool
	dropped int64
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{buf: make([]TraceEvent, 0, capacity)}
}

// reset empties the ring for reuse (events() copies out, so the buffer
// itself is never aliased by returned slices).
func (r *traceRing) reset() {
	r.buf = r.buf[:0]
	r.pos = 0
	r.full = false
	r.dropped = 0
}

func (r *traceRing) push(e TraceEvent) {
	if cap(r.buf) == 0 {
		r.dropped++
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.full = true
	r.dropped++
	r.buf[r.pos] = e
	r.pos = (r.pos + 1) % cap(r.buf)
}

// events returns the buffered events oldest-first.
func (r *traceRing) events() []TraceEvent {
	if !r.full {
		return append([]TraceEvent(nil), r.buf...)
	}
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.pos:]...)
	out = append(out, r.buf[:r.pos]...)
	return out
}

// TraceEvents returns the recorded vector timing events oldest-first: the
// unbounded trace when Config.Trace is set, otherwise the contents of the
// bounded ring buffer (Config.TraceRing), otherwise nil.
func (t *Timing) TraceEvents() []TraceEvent {
	if t.cfg.Trace {
		return t.trace
	}
	if t.ring != nil {
		return t.ring.events()
	}
	return nil
}

// TraceDropped reports how many events the bounded ring buffer discarded
// (0 when tracing is unbounded or disabled).
func (t *Timing) TraceDropped() int64 {
	if t.ring == nil {
		return 0
	}
	return t.ring.dropped
}

// LaneEvents converts vector timing events into the generic per-lane
// shape the observability layer's merged Chrome export takes: one row
// per VP pipe, one interval per vector instruction (stream entry to last
// element), timestamps in clock cycles, with chime, VL, stall and
// dispatch cycles in the args.
func LaneEvents(events []TraceEvent) []obs.LaneEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]obs.LaneEvent, 0, len(events))
	for _, e := range events {
		dur := e.Finish - e.Start
		if dur <= 0 {
			dur = 1
		}
		out = append(out, obs.LaneEvent{
			Lane:  fmt.Sprintf("%s pipe", e.Instr.Pipe()),
			Name:  e.Instr.String(),
			Start: e.Start,
			Dur:   dur,
			Args: map[string]any{
				"chime":        e.Chime,
				"vl":           e.VL,
				"stall":        e.Stall,
				"dispatch":     e.Dispatch,
				"first_result": e.FirstResult,
			},
		})
	}
	return out
}
