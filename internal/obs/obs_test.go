package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartWithoutTraceIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "compile")
	if sp != nil {
		t.Fatalf("Start without a trace returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a trace replaced the context")
	}
	sp.End() // must not panic
	var nilTrace *Trace
	if v := nilTrace.View(); v.ID != "" || len(v.Spans) != 0 {
		t.Fatalf("nil trace view not empty: %+v", v)
	}
	if d := nilTrace.StageDurations(); d != nil {
		t.Fatalf("nil trace stage durations: %v", d)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("abc")
	ctx := NewContext(context.Background(), tr)

	ctx, root := Start(ctx, "analyze")
	cctx, compile := Start(ctx, "compile")
	compile.End()
	_, sim := Start(ctx, "simulate")
	_, inner := Start(cctx, "lex") // nests under compile even after its End
	inner.End()
	sim.End()
	root.End()

	v := tr.View()
	if v.ID != "abc" {
		t.Fatalf("trace id = %q", v.ID)
	}
	want := []struct {
		name   string
		parent int
	}{
		{"analyze", -1},
		{"compile", 0},
		{"simulate", 0},
		{"lex", 1},
	}
	if len(v.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(v.Spans), len(want), v.Spans)
	}
	for i, w := range want {
		if v.Spans[i].Name != w.name || v.Spans[i].Parent != w.parent {
			t.Errorf("span %d = %q parent %d, want %q parent %d",
				i, v.Spans[i].Name, v.Spans[i].Parent, w.name, w.parent)
		}
		if !v.Spans[i].Complete {
			t.Errorf("span %q not complete", w.name)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	_, sp := Start(ctx, "x")
	sp.End()
	d1 := tr.View().Spans[0].DurUS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := tr.View().Spans[0].DurUS; d2 != d1 {
		t.Fatalf("second End changed duration: %d -> %d", d1, d2)
	}
}

func TestStageDurations(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, sp := Start(ctx, "item")
		sp.End()
	}
	_, open := Start(ctx, "open")
	_ = open // never ended: must not contribute
	d := tr.StageDurations()
	if _, ok := d["open"]; ok {
		t.Fatalf("unfinished span leaked into stage durations")
	}
	if _, ok := d["item"]; !ok {
		t.Fatalf("completed spans missing from stage durations: %v", d)
	}

	// NestedDurations leaves out root spans: a root and a stage nested
	// under it that share a name fold to the stage's time alone.
	rctx, root := Start(ctx, "bound")
	_, stage := Start(rctx, "bound")
	stage.End()
	root.End()
	if got, want := tr.NestedDurations(), map[string]time.Duration{"bound": stage.Duration()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nested durations = %v, want %v", got, want)
	}
	if all := tr.StageDurations()["bound"]; all != root.Duration()+stage.Duration() || root.Duration() < stage.Duration() {
		t.Fatalf("stage durations fold bound to %v, want root %v + stage %v", all, root.Duration(), stage.Duration())
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, sp := Start(ctx, "item")
				sp.End()
			}
		}()
	}
	// Concurrent readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.View()
				tr.StageDurations()
			}
		}()
	}
	wg.Wait()
	if n := len(tr.View().Spans); n != 1600 {
		t.Fatalf("got %d spans, want 1600", n)
	}
}

func TestNewIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestLaneBuilderRunsOnceFromView: attached lanes are built by the first
// View and only then — span work and StageDurations never build them —
// and Views racing for them, or coming later, reuse the built events.
func TestLaneBuilderRunsOnceFromView(t *testing.T) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	_, sim := Start(ctx, "simulate")
	builds := 0
	tr.AddLanes(func() []LaneEvent {
		builds++
		return []LaneEvent{{Lane: "add pipe", Name: "add.d v0,v1,v2", Start: 3, Dur: 128}}
	})
	sim.End()
	tr.StageDurations()
	if builds != 0 || !tr.LanesPending() {
		t.Fatalf("lanes built %d times before any View", builds)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := tr.View(); len(v.Lanes) != 1 || v.Lanes[0].Start != 3 {
				t.Errorf("view lanes = %+v", v.Lanes)
			}
		}()
	}
	wg.Wait()
	if v := tr.View(); len(v.Lanes) != 1 {
		t.Fatalf("later view lanes = %+v", v.Lanes)
	}
	if builds != 1 || tr.LanesPending() {
		t.Fatalf("lane builder ran %d times over nine Views, want 1", builds)
	}
	// A later attachment replaces the built lanes and waits for a View.
	tr.AddLanes(func() []LaneEvent { builds++; return nil })
	if !tr.LanesPending() {
		t.Fatal("replaced lanes are not pending before a View")
	}
	if v := tr.View(); len(v.Lanes) != 0 || builds != 2 {
		t.Fatalf("replacement view lanes %+v after %d builds", v.Lanes, builds)
	}
	var nilTrace *Trace
	nilTrace.AddLanes(func() []LaneEvent { builds++; return nil })
	if nilTrace.LanesPending() || builds != 2 {
		t.Fatal("a nil trace ran or reported a lane builder")
	}
}

func TestChromeTraceMergesLanes(t *testing.T) {
	tr := NewTrace("deadbeef00000000")
	ctx := NewContext(context.Background(), tr)
	ctx, root := Start(ctx, "analyze")
	_, sim := Start(ctx, "simulate")
	tr.AddLanes(func() []LaneEvent {
		return []LaneEvent{
			{Lane: "add pipe", Name: "vadd", Start: 0, Dur: 10, Args: map[string]any{"vl": 128}},
			{Lane: "load/store pipe", Name: "vload", Start: 2, Dur: 12},
		}
	})
	sim.End()
	root.End()

	b, err := ChromeTrace(tr.View())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var spanNames, laneNames, threadNames []string
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			if e["pid"].(float64) == chromePIDRequest {
				spanNames = append(spanNames, e["name"].(string))
			} else {
				laneNames = append(laneNames, e["name"].(string))
			}
		case "M":
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				threadNames = append(threadNames, args["name"].(string))
			}
		}
	}
	if strings.Join(spanNames, ",") != "analyze,simulate" {
		t.Errorf("span events = %v", spanNames)
	}
	if strings.Join(laneNames, ",") != "vadd,vload" {
		t.Errorf("lane events = %v", laneNames)
	}
	joined := strings.Join(threadNames, ",")
	for _, want := range []string{"pipeline", "add pipe", "load/store pipe"} {
		if !strings.Contains(joined, want) {
			t.Errorf("thread names %q missing %q", joined, want)
		}
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := StartRuntimeSampler(time.Second)
	defer s.Stop()
	st := s.Stats()
	if st.SampledAt.IsZero() {
		t.Fatalf("sampler did not sample immediately")
	}
	if st.Goroutines <= 0 || st.HeapAllocBytes == 0 {
		t.Fatalf("implausible runtime sample: %+v", st)
	}
	var nilSampler *RuntimeSampler
	if got := nilSampler.Stats(); !got.SampledAt.IsZero() {
		t.Fatalf("nil sampler returned a sample")
	}
	nilSampler.Stop()
}

// BenchmarkStartDisabled pins the disabled-path cost: one context.Value
// lookup and two nil checks. The ≤2% facade overhead budget in
// bench_test.go rests on this staying in the nanoseconds.
func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}

func BenchmarkStartEnabled(b *testing.B) {
	tr := NewTrace("")
	ctx := NewContext(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage")
		sp.End()
	}
}
