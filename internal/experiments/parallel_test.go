package experiments

import (
	"reflect"
	"testing"

	"macs/internal/calib"
)

// TestRunAllParallelMatchesSequential is the sweep-runner gate: fanning
// the kernels out over goroutines must reproduce the sequential results
// exactly — same order, same analyses, programs, Stats, attribution
// ledgers and A/X measurements. Every table and figure view reads one
// such run, so this also covers the tables' fan-out.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel sweep")
	}
	seq := Default()
	parCfg := Default()
	parCfg.Parallel = 4

	want, err := RunAll(seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAll(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel RunAll returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		// Kernel carries a func-valued Reference field, which DeepEqual
		// can never match across two lfk.All() calls — compare its ID and
		// every measured field instead.
		if got[i].Kernel.ID != want[i].Kernel.ID {
			t.Fatalf("result %d: kernel %d, want %d", i, got[i].Kernel.ID, want[i].Kernel.ID)
		}
		g, w := got[i], want[i]
		g.Kernel, w.Kernel = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("lfk%d: parallel result diverges from sequential:\ngot  %+v\nwant %+v",
				want[i].Kernel.ID, g, w)
		}
	}
}

// TestTablesParallelMatchSequential checks the paper's Tables 2 and 3
// as rendered: the views of a parallel run must equal those of a
// sequential one.
func TestTablesParallelMatchSequential(t *testing.T) {
	seq := mustSuite(t)
	parCfg := Default()
	parCfg.Parallel = 4
	par, err := RunAll(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Table2(par), Table2(seq)) {
		t.Fatal("parallel Table2 diverges from sequential")
	}
	if !reflect.DeepEqual(Table3(par), Table3(seq)) {
		t.Fatal("parallel Table3 diverges from sequential")
	}
}

func TestCalibrateAllNMatchesSequential(t *testing.T) {
	cfg := Default()
	want, err := calib.CalibrateAll(cfg.VM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := calib.CalibrateAllN(cfg.VM, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel calibration diverges from sequential")
	}
}
