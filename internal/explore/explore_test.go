package explore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"macs"
	"macs/internal/lfk"
	"macs/internal/vm"
)

func TestGridSizeAndPoints(t *testing.T) {
	g := Grid{Axes: []Axis{
		{Param: "banks", Values: []float64{16, 32}},
		{Param: "refresh-stalls", Values: []float64{0, 1}},
		{Param: "vlmax", Values: []float64{64, 128, 256}},
	}}
	if got := g.Size(); got != 12 {
		t.Fatalf("Size = %d, want 12", got)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("Points = %d, want 12", len(pts))
	}
	// Last axis varies fastest; first point is the first value of every
	// axis applied to the default base.
	want := vm.DefaultMachine()
	want.Banks = 16
	want.RefreshStalls = false
	want.VLMax = 64
	if pts[0] != want {
		t.Fatalf("point 0 = %+v, want %+v", pts[0], want)
	}
	if pts[1].VLMax != 128 || pts[1].Banks != 16 {
		t.Fatalf("odometer order wrong: point 1 = %+v", pts[1])
	}
	if pts[11].Banks != 32 || pts[11].VLMax != 256 || !pts[11].RefreshStalls {
		t.Fatalf("last point = %+v", pts[11])
	}
	// An axis-free grid has exactly one point: the base.
	solo, err := Grid{}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 1 || solo[0] != vm.DefaultMachine() {
		t.Fatalf("axis-free grid = %+v", solo)
	}
}

func TestGridValidation(t *testing.T) {
	cases := []Grid{
		{Axes: []Axis{{Param: "warp-drive", Values: []float64{1}}}},
		{Axes: []Axis{{Param: "banks"}}},
		{Axes: []Axis{{Param: "banks", Values: []float64{1.5}}}},
		{Axes: []Axis{{Param: "banks", Values: []float64{0}}}},
		{Axes: []Axis{{Param: "chaining", Values: []float64{2}}}},
		{Axes: []Axis{{Param: "mem-slowdown", Values: []float64{-1}}}},
	}
	for i, g := range cases {
		if _, err := g.Points(); err == nil {
			t.Errorf("case %d: bad grid accepted: %+v", i, g)
		}
	}
}

// TestSweepOnePointDifferential is the bit-equivalence gate of the
// explore engine: a 1-point grid over the default machine must reproduce
// plain macs.AnalyzeSourceVM exactly — cycles, full statistics and
// attribution ledger, bounds hierarchy, CPL — on all ten case-study
// kernels. Any divergence means the sweep path and the serving path
// simulate different machines.
func TestSweepOnePointDifferential(t *testing.T) {
	eng, err := New(Grid{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range lfk.All() {
		sw, err := eng.Sweep(context.Background(), Request{
			Name:       k.Name,
			Source:     k.Source,
			Iterations: int64(k.Elements),
			Ints:       k.DataInts(),
			Prime:      k.PrimeFunc(),
		})
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		if sw.Swept != 1 || sw.Simulated != 1 || sw.Pruned != 0 {
			t.Fatalf("lfk%d: 1-point sweep counts = %d/%d/%d", k.ID, sw.Swept, sw.Simulated, sw.Pruned)
		}
		p := sw.Points[0]
		if !p.Simulated || p.Rank != 1 {
			t.Fatalf("lfk%d: sole point not the simulated winner: %+v", k.ID, p)
		}

		res, err := macs.AnalyzeSourceVM(k.Source, int64(k.Elements), vm.DefaultConfig(), k.PrimeFunc())
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		if p.Cycles != res.Stats.Cycles {
			t.Errorf("lfk%d: cycles %d, AnalyzeSourceVM %d", k.ID, p.Cycles, res.Stats.Cycles)
		}
		if !reflect.DeepEqual(*p.Stats, res.Stats) {
			t.Errorf("lfk%d: stats diverge:\nexplore: %+v\nanalyze: %+v", k.ID, *p.Stats, res.Stats)
		}
		if p.CPL != res.MeasuredCPL {
			t.Errorf("lfk%d: CPL %v, AnalyzeSourceVM %v", k.ID, p.CPL, res.MeasuredCPL)
		}
		a := res.Analysis
		want := Bounds{TMA: a.TMA, TMAC: a.TMAC, TMACS: a.MACS.CPL, TCP: a.TCP, Chimes: len(a.MACS.Chimes)}
		if p.Bounds != want {
			t.Errorf("lfk%d: bounds %+v, AnalyzeSourceVM %+v", k.ID, p.Bounds, want)
		}
	}
}

// TestSweepShortVLDifferential pins the per-VL compile: a 1-point grid
// over a VLMax=64 machine must agree bit-for-bit with AnalyzeSourceVM
// under the same machine — the strip length is burned in at compile
// time, so both paths must recompile at the machine's vector length
// rather than hardware-clamp a VL=128 program (which would silently
// skip half of every strip).
func TestSweepShortVLDifferential(t *testing.T) {
	grid := Grid{Axes: []Axis{{Param: "vlmax", Values: []float64{64}}}}
	eng, err := New(grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.VLMax = 64
	for _, k := range lfk.All() {
		sw, err := eng.Sweep(context.Background(), Request{
			Source:     k.Source,
			Iterations: int64(k.Elements),
			Ints:       k.DataInts(),
			Prime:      k.PrimeFunc(),
		})
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		p := sw.Points[0]
		res, err := macs.AnalyzeSourceVM(k.Source, int64(k.Elements), cfg, k.PrimeFunc())
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		if p.Cycles != res.Stats.Cycles {
			t.Errorf("lfk%d: cycles %d, AnalyzeSourceVM %d", k.ID, p.Cycles, res.Stats.Cycles)
		}
		if !reflect.DeepEqual(*p.Stats, res.Stats) {
			t.Errorf("lfk%d: stats diverge:\nexplore: %+v\nanalyze: %+v", k.ID, *p.Stats, res.Stats)
		}
	}
}

// TestSweepDataDependentFallback: a kernel that branches on floating-point
// data cannot be scored by the predictor, so the sweep falls back to
// simulating every point. Nothing is pruned, no point carries a
// prediction, every point measures what a fresh simulation of its
// machine measures, and rank 1 is the fastest of them.
func TestSweepDataDependentFallback(t *testing.T) {
	const src = `
PROGRAM DATADEP
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
IF (S .LT. 1.0) GOTO 10
10 CONTINUE
END
`
	prime := func(c *vm.CPU) error {
		base, ok := c.Memory().SymbolAddr("d_N")
		if !ok {
			return fmt.Errorf("no symbol d_N")
		}
		return c.Memory().WriteI64(base, 16)
	}
	// The slowest machine (few banks, long bank cycle) is point 0, so a
	// ranking that kept grid order would crown the wrong point.
	grid := Grid{Axes: []Axis{
		{Param: "banks", Values: []float64{8, 32}},
		{Param: "bank-cycle", Values: []float64{16, 4}},
	}}
	eng, err := New(grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.Sweep(context.Background(), Request{
		Source:     src,
		Iterations: 16,
		Ints:       map[string]int64{"d_N": 16},
		Prime:      prime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Fallback || sw.Simulated != sw.Swept || sw.Pruned != 0 {
		t.Fatalf("fallback %v, simulated %d of %d, pruned %d; want fallback with every point simulated",
			sw.Fallback, sw.Simulated, sw.Swept, sw.Pruned)
	}
	fastest := -1
	var fastestCycles int64
	for i, p := range sw.Points {
		if p.PredictedCycles != 0 || p.PredictedCPL != 0 {
			t.Errorf("point %d carries a prediction: %d cycles, %g CPL", i, p.PredictedCycles, p.PredictedCPL)
		}
		cfg := vm.DefaultConfig()
		cfg.Machine = p.Machine
		res, err := macs.AnalyzeSourceVM(src, 16, cfg, prime)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if !p.Simulated || p.Cycles != res.Stats.Cycles {
			t.Errorf("point %d: simulated %v, %d cycles; fresh run %d", i, p.Simulated, p.Cycles, res.Stats.Cycles)
		}
		if fastest < 0 || res.Stats.Cycles < fastestCycles {
			fastest, fastestCycles = i, res.Stats.Cycles
		}
	}
	if fastest == 0 {
		t.Fatalf("point 0 is the fastest; the grid no longer tells the ranking from grid order")
	}
	if best := sw.Best(); best.Index != fastest || best.Cycles != fastestCycles {
		t.Errorf("rank 1 is point %d (%d cycles), fastest fresh run is point %d (%d cycles)",
			best.Index, best.Cycles, fastest, fastestCycles)
	}
}

// randomGrid builds a seeded random grid over machine knobs that change
// real timing behavior.
func randomGrid(rng *rand.Rand) Grid {
	pick := func(vals []float64, n int) []float64 {
		out := make([]float64, 0, n)
		perm := rng.Perm(len(vals))
		for _, i := range perm[:n] {
			out = append(out, vals[i])
		}
		return out
	}
	return Grid{Axes: []Axis{
		{Param: "banks", Values: pick([]float64{8, 16, 17, 32, 64}, 2)},
		{Param: "bank-cycle", Values: pick([]float64{4, 8, 12, 16}, 2)},
		{Param: "vlmax", Values: pick([]float64{32, 64, 128}, 2)},
		{Param: "chaining", Values: []float64{0, 1}},
	}}
}

// TestSweepNeverDropsWinner is the pruning-safety property: on seeded
// random grids, the two-stage sweep's rank-1 machine must be the same
// machine an exhaustive simulation of every point would crown. The fast
// tier's replay is bit-exact for these kernels, so its ranking is the
// simulator's ranking and the winner always survives the cut.
func TestSweepNeverDropsWinner(t *testing.T) {
	k, err := lfk.ByID(7)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Source:     k.Source,
		Iterations: int64(k.Elements),
		Ints:       k.DataInts(),
		Prime:      k.PrimeFunc(),
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grid := randomGrid(rng)

		pruned, err := New(grid, Options{TopFrac: 0.05, MinTop: 1})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := pruned.Sweep(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sw.Fallback {
			t.Fatalf("seed %d: unexpected data-dependent fallback", seed)
		}

		exhaustive, err := New(grid, Options{TopFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := exhaustive.Sweep(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if truth.Simulated != truth.Swept {
			t.Fatalf("seed %d: exhaustive sweep simulated %d of %d", seed, truth.Simulated, truth.Swept)
		}

		got, want := sw.Best(), truth.Best()
		if got.Fingerprint != want.Fingerprint {
			t.Errorf("seed %d: pruned winner %+v (cycles %d), exhaustive winner %+v (cycles %d)",
				seed, got.Machine, got.Cycles, want.Machine, want.Cycles)
		}
		if got.Cycles != want.Cycles {
			t.Errorf("seed %d: winner cycles %d vs exhaustive %d", seed, got.Cycles, want.Cycles)
		}
	}
}

// TestSweepPruningEconomics checks the two-stage bookkeeping on a larger
// grid: at the default 5% fraction, at least 10x fewer simulations than
// an exhaustive sweep, every survivor measured and ranked, every pruned
// point still scored and bounded.
func TestSweepPruningEconomics(t *testing.T) {
	k, err := lfk.ByID(7)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{Axes: []Axis{
		{Param: "banks", Values: []float64{8, 16, 24, 32, 48, 64}},
		{Param: "refresh-period", Values: []float64{200, 300, 400, 500, 600}},
		{Param: "vlmax", Values: []float64{32, 64, 96, 128}},
	}}
	eng, err := New(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.Sweep(context.Background(), Request{
		Source:     k.Source,
		Iterations: int64(k.Elements),
		Ints:       k.DataInts(),
		Prime:      k.PrimeFunc(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Swept != 120 {
		t.Fatalf("swept %d, want 120", sw.Swept)
	}
	if sw.Simulated != 6 { // ceil(0.05 * 120)
		t.Fatalf("simulated %d, want 6", sw.Simulated)
	}
	if sw.Pruned != 114 {
		t.Fatalf("pruned %d, want 114", sw.Pruned)
	}
	if ratio := float64(sw.Swept) / float64(sw.Simulated); ratio < 10 {
		t.Fatalf("pruning ratio %.1fx below the 10x floor", ratio)
	}
	ranks := map[int]bool{}
	for _, p := range sw.Points {
		if p.Simulated {
			if p.Rank < 1 || p.Rank > sw.Simulated || p.Stats == nil || p.Cycles <= 0 {
				t.Fatalf("bad survivor %+v", p)
			}
			if ranks[p.Rank] {
				t.Fatalf("duplicate rank %d", p.Rank)
			}
			ranks[p.Rank] = true
			if err := p.Stats.Attr.Conserved(p.Cycles); err != nil {
				t.Fatalf("survivor %d: %v", p.Index, err)
			}
		} else {
			if p.Rank != 0 || p.Stats != nil {
				t.Fatalf("pruned point carries survivor state: %+v", p)
			}
			if p.PredictedCycles <= 0 {
				t.Fatalf("pruned point %d not scored", p.Index)
			}
		}
		if p.Bounds.TMACS <= 0 || p.Bounds.TMA <= 0 {
			t.Fatalf("point %d missing bounds: %+v", p.Index, p.Bounds)
		}
		if p.Fingerprint == "" {
			t.Fatalf("point %d missing fingerprint", p.Index)
		}
	}
	// Ranked returns survivors first, best first.
	ranked := sw.Ranked()
	if !ranked[0].Simulated || ranked[0].Rank != 1 {
		t.Fatalf("Ranked()[0] = %+v", ranked[0])
	}
	for i := 1; i < sw.Simulated; i++ {
		if ranked[i].Cycles < ranked[i-1].Cycles {
			t.Fatalf("Ranked order broken at %d", i)
		}
	}
	if ranked[sw.Simulated].Simulated {
		t.Fatalf("pruned points not after survivors")
	}
}

// TestSweepCancellation: a cancelled context stops the sweep.
func TestSweepCancellation(t *testing.T) {
	k, err := lfk.ByID(7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Grid{Axes: []Axis{{Param: "banks", Values: []float64{8, 16, 32, 64}}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Sweep(ctx, Request{Source: k.Source, Ints: k.DataInts()}); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
}

// TestSharedEvaluators: engines sharing a registry share per-machine
// state, keyed by machine.
func TestSharedEvaluators(t *testing.T) {
	shared := NewEvaluators(vm.DefaultConfig())
	g := Grid{Axes: []Axis{{Param: "banks", Values: []float64{16, 32}}}}
	for i := 0; i < 2; i++ {
		if _, err := New(g, Options{Evaluators: shared}); err != nil {
			t.Fatal(err)
		}
	}
	k, err := lfk.ByID(7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, Options{Evaluators: shared, TopFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sweep(context.Background(), Request{
		Source: k.Source, Iterations: int64(k.Elements),
		Ints: k.DataInts(), Prime: k.PrimeFunc(),
	}); err != nil {
		t.Fatal(err)
	}
	if got := shared.Machines(); got != 2 {
		t.Fatalf("shared registry holds %d machines, want 2", got)
	}
}
