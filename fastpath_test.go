package macs_test

import (
	"reflect"
	"testing"

	"macs"
	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// TestFastPathBitEquivalence is the gate on the fast simulation engine:
// for all ten LFKs, a pooled simulator using the memoized stream-stall
// table must produce Stats (attribution ledger included) identical to a
// fresh simulator running the naive reference walk. The pool is reused
// across kernels, so later kernels run on state dirtied by earlier ones —
// exactly the service's steady state.
func TestFastPathBitEquivalence(t *testing.T) {
	fastCfg := vm.DefaultConfig()
	naiveCfg := vm.DefaultConfig()
	naiveCfg.NaiveMemPath = true

	// The naive reference runs each build a fresh 16 MB simulator; run
	// them all before the pooled loop, so the GCs they trigger cannot
	// empty the pool between kernels and fake a reuse failure.
	kernels := lfk.All()
	compiled := make([]*lfk.Compiled, len(kernels))
	naive := make([]vm.Stats, len(kernels))
	for i, k := range kernels {
		c, err := lfk.Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		compiled[i] = c
		if naive[i], _, err = c.Run(naiveCfg); err != nil {
			t.Fatalf("lfk%d naive: %v", k.ID, err)
		}
	}

	pool := vm.NewPool(fastCfg)
	for i, k := range kernels {
		c := compiled[i]
		cpu := pool.Get()
		fastStats, err := c.RunOn(cpu)
		if err != nil {
			t.Fatalf("lfk%d fast: %v", k.ID, err)
		}
		if err := c.Validate(cpu); err != nil {
			t.Fatalf("lfk%d fast path numerical validation: %v", k.ID, err)
		}
		pool.Put(cpu)

		if !reflect.DeepEqual(fastStats, naive[i]) {
			t.Fatalf("lfk%d: fast-path stats diverge from naive reference:\nfast  %+v\nnaive %+v",
				k.ID, fastStats, naive[i])
		}
		if err := fastStats.Attr.Conserved(fastStats.Cycles); err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
	}

	if created, returned := pool.Stats(); returned == 0 || created > 2 {
		t.Fatalf("pool reuse broken: created=%d returned=%d", created, returned)
	}
}

// TestAnalyzerMatchesAnalyzeSourceVM checks the pooled facade front door
// against the one-shot path: same bounds, same simulator outcome, same
// measured CPL — on repeated calls, so the second run exercises a warm
// pool and memo table.
func TestAnalyzerMatchesAnalyzeSourceVM(t *testing.T) {
	cfg := macs.DefaultVMConfig()
	an := macs.NewAnalyzer(cfg)
	for _, k := range lfk.All() {
		want, err := macs.AnalyzeSourceVM(k.Source, int64(k.Elements), cfg, nil)
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		for round := 0; round < 2; round++ {
			got, err := an.AnalyzeSource(k.Source, int64(k.Elements), nil)
			if err != nil {
				t.Fatalf("lfk%d round %d: %v", k.ID, round, err)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("lfk%d round %d: pooled Stats diverge:\ngot  %+v\nwant %+v",
					k.ID, round, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Analysis, want.Analysis) {
				t.Fatalf("lfk%d round %d: pooled Analysis diverges", k.ID, round)
			}
			if got.MeasuredCPL != want.MeasuredCPL {
				t.Fatalf("lfk%d round %d: MeasuredCPL %v, want %v",
					k.ID, round, got.MeasuredCPL, want.MeasuredCPL)
			}
		}
	}
}
