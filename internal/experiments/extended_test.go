package experiments

import (
	"testing"

	"macs/internal/advisor"
)

func TestRunExtended(t *testing.T) {
	rows := Extended(mustSuite(t), Default().VM.Rules)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		// Extended never falls below the plain bound and never exceeds
		// the measurement by much (it is still a bound on deliverables,
		// not a fit).
		if r.TPlus < r.TMACS-1e-9 {
			t.Errorf("lfk%d: t_MACS+ %.3f below t_MACS %.3f", r.ID, r.TPlus, r.TMACS)
		}
		if r.TPlus > r.TP*1.05 {
			t.Errorf("lfk%d: t_MACS+ %.3f above measured %.3f", r.ID, r.TPlus, r.TP)
		}
		// Every kernel in this suite is conflict-free: MACSD == MACS.
		if r.TD != r.TMACS {
			t.Errorf("lfk%d: t_MACSD %.3f != t_MACS %.3f (all strides conflict-free)", r.ID, r.TD, r.TMACS)
		}
	}
	// The headline claim: the extension explains the short-vector
	// kernels far better than the plain bound.
	byID := map[int]ExtendedRow{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	for _, id := range []int{4, 6} {
		r := byID[id]
		if r.PctPlus < r.PctMACS+0.25 {
			t.Errorf("lfk%d: extension gain too small: %%MACS %.2f -> %%MACS+ %.2f", id, r.PctMACS, r.PctPlus)
		}
	}
	if byID[3].PctPlus < 0.9 {
		t.Errorf("lfk3: t_MACS+ should explain >90%%, got %.2f", byID[3].PctPlus)
	}
}

func TestDiagnoseAll(t *testing.T) {
	ds := DiagnoseAll(mustSuite(t))
	if len(ds) != 10 {
		t.Fatalf("diagnoses = %d, want 10", len(ds))
	}
	// The paper's headline narratives (§4.4).
	if !ds[1].Has(advisor.CauseCompilerWork) {
		t.Error("LFK1 missing compiler-inserted-work")
	}
	if !ds[8].Has(advisor.CauseScalarSplit) {
		t.Error("LFK8 missing scalar-split")
	}
	if !ds[6].Has(advisor.CauseUnmodeledScalar) {
		t.Error("LFK6 missing unmodeled-scalar")
	}
	if ds[10].Primary() != advisor.CauseNearBound && !ds[10].Has(advisor.CauseNearBound) {
		t.Error("LFK10 should be near-bound")
	}
}

func TestRunClusterContention(t *testing.T) {
	rows, err := RunClusterContention(Default(), mustSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Degradation < 0.999 {
			t.Errorf("lfk%d: cluster faster than solo (%.3f)", r.ID, r.Degradation)
		}
		// Same-executable lockstep (paper: 5-10%); allow up to 35% for
		// the memory-saturating kernels.
		if r.Degradation > 1.35 {
			t.Errorf("lfk%d: lockstep degradation %.2f implausibly high", r.ID, r.Degradation)
		}
		t.Logf("lfk%d: solo %.2f CPL, 4-copy cluster %.2f CPL (%.1f%%)",
			r.ID, r.SoloCPL, r.ClusterCPL, 100*(r.Degradation-1))
	}
}
