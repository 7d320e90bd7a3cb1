package experiments

import (
	"context"
	"testing"

	"macs"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// TestAttributionConservedAllKernels is the acceptance check for the
// stall-attribution ledger: on every kernel of the ten-LFK case study,
// each lane's issue plus attributed stall cycles must exactly equal the
// run's total cycle count.
func TestAttributionConservedAllKernels(t *testing.T) {
	for _, r := range mustSuite(t) {
		k := r.Kernel
		if err := r.Stats.Attr.Conserved(r.Stats.Cycles); err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
		}
		if r.Stats.Attr.Empty() {
			t.Errorf("lfk%d: empty attribution ledger", k.ID)
		}
		// Vector kernels must book pipe issue cycles; refresh is on in the
		// default config, so long runs attribute refresh stall somewhere.
		if r.Stats.Attr.IssueCycles() == 0 {
			t.Errorf("lfk%d: no issue cycles attributed", k.ID)
		}
	}
}

// TestAttributionRefreshShare checks the refresh duty cycle surfaces in
// the ledger: the C-240 refreshes 8 of every 400 cycles (2%), so on a
// long memory-heavy kernel the attributed refresh share of memory-pipe
// time lands near that, and vanishes with refresh disabled.
func TestAttributionRefreshShare(t *testing.T) {
	k, err := lfk.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	r, err := macs.RunKernel(context.Background(), k, cfg.VM)
	if err != nil {
		t.Fatal(err)
	}
	refresh := r.Stats.Attr.Cause(vm.StallRefresh)
	if refresh == 0 {
		t.Fatal("refresh enabled but no refresh cycles attributed")
	}
	// Share of the load/store pipe's cycles (the lane that eats refresh).
	share := float64(r.Stats.Attr.Lanes[1].Stalls[vm.StallRefresh]) / float64(r.Stats.Cycles)
	if share < 0.005 || share > 0.04 {
		t.Errorf("load/store refresh share = %.4f, want ~0.02 (2%% duty cycle)", share)
	}
	cfg.VM.RefreshStalls = false
	r2, err := macs.RunKernel(context.Background(), k, cfg.VM)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats.Attr.Cause(vm.StallRefresh); got != 0 {
		t.Errorf("refresh disabled but %d refresh cycles attributed", got)
	}
	if r2.Stats.Cycles >= r.Stats.Cycles {
		t.Errorf("disabling refresh should not slow the run: %d vs %d", r2.Stats.Cycles, r.Stats.Cycles)
	}
}
