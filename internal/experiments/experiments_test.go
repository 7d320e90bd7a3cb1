package experiments

import (
	"context"
	"math"
	"sync"
	"testing"

	"macs"
	"macs/internal/lfk"
)

// suite is the one run of the case study on the default machine that
// the table and figure views below read.
var suite = sync.OnceValues(func() ([]macs.KernelResult, error) { return RunAll(Default()) })

func mustSuite(t *testing.T) []macs.KernelResult {
	t.Helper()
	rs, err := suite()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestRunKernelLFK1(t *testing.T) {
	k := mustKernel(t, 1)
	r, err := macs.RunKernel(context.Background(), k, Default().VM)
	if err != nil {
		t.Fatal(err)
	}
	tma, tmac, tmacs, tp := r.CPFs()
	if tma != 0.6 || tmac != 0.8 {
		t.Errorf("CPFs: MA=%v MAC=%v, want 0.6, 0.8", tma, tmac)
	}
	if math.Abs(tmacs-0.840) > 0.001 {
		t.Errorf("MACS CPF = %v, want 0.840", tmacs)
	}
	if tp < tmacs {
		t.Errorf("measured %v below MACS bound %v", tp, tmacs)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2(mustSuite(t))
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// Spot-check the paper's MA->MAC deltas: extra loads in 1, 2, 7, 12.
	deltas := map[int]int{1: 1, 2: 1, 7: 6, 12: 1}
	for _, r := range rows {
		want, interesting := deltas[r.ID]
		got := r.MAC.Loads - r.MA.Loads
		if interesting && got != want {
			t.Errorf("lfk%d: MAC-MA load delta = %d, want %d", r.ID, got, want)
		}
		if !interesting && r.ID != 8 && got != 0 {
			t.Errorf("lfk%d: unexpected load delta %d", r.ID, got)
		}
	}
}

func TestTable3Hierarchy(t *testing.T) {
	for _, r := range Table3(mustSuite(t)) {
		if r.TMA > r.TMAC+1e-9 || r.TMAC > r.TMACS+1e-9 {
			t.Errorf("lfk%d: hierarchy violated: %v %v %v", r.ID, r.TMA, r.TMAC, r.TMACS)
		}
		if r.TM > r.TMp+1e-9 || r.TF > r.TFp+1e-9 {
			t.Errorf("lfk%d: MAC components below MA: %+v", r.ID, r)
		}
		// Reduced bounds cannot exceed the full bound... they can match.
		if r.TMACSf > r.TMACS+1e-9 || r.TMACSm > r.TMACS+1e-9 {
			t.Errorf("lfk%d: reduced bound above full MACS: %+v", r.ID, r)
		}
	}
}

func TestTable4ShapeAgainstPaper(t *testing.T) {
	t4 := Table4(mustSuite(t))
	for _, r := range t4.Rows {
		// Bound CPFs must be close to the paper (same model, same
		// compiler behaviours).
		if math.Abs(r.TMA-r.Paper.TMA) > 0.001 {
			t.Errorf("lfk%d: t_MA = %.3f, paper %.3f", r.ID, r.TMA, r.Paper.TMA)
		}
		if math.Abs(r.TMAC-r.Paper.TMAC) > 0.001 {
			t.Errorf("lfk%d: t_MAC = %.3f, paper %.3f", r.ID, r.TMAC, r.Paper.TMAC)
		}
		if relErr(r.TMACS, r.Paper.TMACS) > 0.20 {
			t.Errorf("lfk%d: t_MACS = %.3f, paper %.3f (>20%% off)", r.ID, r.TMACS, r.Paper.TMACS)
		}
		// Measured within 2x of the paper's machine (ours is a simulator).
		if relErr(r.TP, r.Paper.TP) > 1.0 {
			t.Errorf("lfk%d: t_p = %.3f, paper %.3f", r.ID, r.TP, r.Paper.TP)
		}
		// The hierarchy explains performance: MACS explains a meaningful
		// share of t_p everywhere (the paper's floor is LFK6 at 46%; our
		// scalar outer-loop code is more naive than fc's, so allow 20%).
		if r.PctMACS < 0.20 || r.PctMACS > 1.001 {
			t.Errorf("lfk%d: MACS explains %.1f%% of t_p", r.ID, 100*r.PctMACS)
		}
	}
	// Who wins: LFK2 and LFK6 are the two worst kernels (the paper's two
	// outliers: multiple-exit cascade and short-vector recurrence), LFK7
	// among the best (CPF).
	byID := map[int]Table4Row{}
	for _, r := range t4.Rows {
		byID[r.ID] = r
	}
	worst2 := math.Max(byID[2].TP, byID[6].TP)
	for _, r := range t4.Rows {
		if r.ID != 2 && r.ID != 6 && r.TP > worst2 {
			t.Errorf("lfk%d measured CPF %.3f above LFK2/LFK6's %.3f (they should be the outliers)", r.ID, r.TP, worst2)
		}
	}
	if byID[7].TP > 1.0 {
		t.Errorf("LFK7 CPF = %.3f, should be well under 1.0", byID[7].TP)
	}
	// MFLOPS ordering: MA fastest claim, measured slowest.
	if !(t4.MFLOPS[0] >= t4.MFLOPS[1] && t4.MFLOPS[1] >= t4.MFLOPS[2] && t4.MFLOPS[2] >= t4.MFLOPS[3]) {
		t.Errorf("MFLOPS not monotone: %v", t4.MFLOPS)
	}
}

func TestTable5Relations(t *testing.T) {
	for _, r := range Table5(mustSuite(t)) {
		// Measurements sit at or above their bounds.
		if r.TX < r.TMACSf-0.01 {
			t.Errorf("lfk%d: t_x %.2f below t_MACS^f %.2f", r.ID, r.TX, r.TMACSf)
		}
		if r.TA < r.TMACSm-0.01 {
			t.Errorf("lfk%d: t_a %.2f below t_MACS^m %.2f", r.ID, r.TA, r.TMACSm)
		}
		// Eq. 18: max(t_x, t_a) <= t_p <= t_x + t_a (small slack for the
		// scalar work shared between the A and X codes).
		if r.TP+0.05 < math.Max(r.TX, r.TA) {
			t.Errorf("lfk%d: t_p %.2f below max(t_x=%.2f, t_a=%.2f)", r.ID, r.TP, r.TX, r.TA)
		}
		if r.TP > r.TX+r.TA+0.05 {
			t.Errorf("lfk%d: t_p %.2f above t_x+t_a=%.2f", r.ID, r.TP, r.TX+r.TA)
		}
	}
}

func TestFigure2(t *testing.T) {
	fig, err := RunFigure2(Default())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ChainedCycles < 160 || fig.ChainedCycles > 175 {
		t.Errorf("chained = %d, want about 162", fig.ChainedCycles)
	}
	if fig.UnchainedCycles < 410 || fig.UnchainedCycles > 435 {
		t.Errorf("unchained = %d, want about 422", fig.UnchainedCycles)
	}
	if fig.SteadyChime < 131 || fig.SteadyChime > 134 {
		t.Errorf("steady chime = %.2f, want 132", fig.SteadyChime)
	}
	if len(fig.Events) != 3 {
		t.Fatalf("trace has %d events, want 3", len(fig.Events))
	}
	// Chaining order: add starts after the load's first result, the mul
	// after the add's.
	ld, add, mul := fig.Events[0], fig.Events[1], fig.Events[2]
	if add.Start < ld.FirstResult || mul.Start < add.FirstResult {
		t.Error("chaining order violated in trace")
	}
}

func TestFigure3Contention(t *testing.T) {
	cfg := Default()
	cfg.MultiSlowdown = 1.45 // pin for test determinism
	rows, slow, err := RunFigure3(cfg, mustSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if slow != 1.45 {
		t.Errorf("slowdown = %v, want pinned 1.45", slow)
	}
	for _, r := range rows {
		if r.Multi < r.Single {
			t.Errorf("lfk%d: multi-process CPF %.3f below single %.3f", r.ID, r.Multi, r.Single)
		}
	}
	// Memory-bound kernels degrade noticeably; the degradation is partly
	// masked (paper: performance does not degrade proportionally).
	var anyBig bool
	for _, r := range rows {
		ratio := r.Multi / r.Single
		if ratio > 1.15 {
			anyBig = true
		}
		if ratio > 1.6 {
			t.Errorf("lfk%d: contention ratio %.2f exceeds the raw slowdown", r.ID, ratio)
		}
	}
	if !anyBig {
		t.Error("no kernel shows noticeable contention degradation")
	}
}

func TestDerivedContentionSlowdownInRange(t *testing.T) {
	cfg := Default()
	cfg.MultiSlowdown = 0 // derive from the arbiter simulation
	_, slow, err := RunFigure3(cfg, mustSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: one access per 56-64 ns vs 40 ns peak -> 1.4x-1.6x; our
	// arbiter lands in the same neighborhood.
	if slow < 1.2 || slow > 1.8 {
		t.Errorf("derived contention slowdown = %.2f, want about 1.4-1.7", slow)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / want
}

func mustKernel(t *testing.T, id int) *lfk.Kernel {
	t.Helper()
	k, err := lfk.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
