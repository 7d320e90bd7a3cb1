package macs_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"macs"
	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// TestFastPathBitEquivalence is the gate on the fast simulation engine:
// for all ten LFKs, a fresh simulator using the memoized stream-stall
// table must produce Stats (attribution ledger included) identical to a
// fresh simulator running the naive reference walk, and compute the
// kernel's reference results.
func TestFastPathBitEquivalence(t *testing.T) {
	fastCfg := vm.DefaultConfig()
	naiveCfg := vm.DefaultConfig()
	naiveCfg.NaiveMemPath = true

	for _, k := range lfk.All() {
		c, err := lfk.Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		naive, _, err := c.Run(naiveCfg)
		if err != nil {
			t.Fatalf("lfk%d naive: %v", k.ID, err)
		}
		fast, cpu, err := c.Run(fastCfg)
		if err != nil {
			t.Fatalf("lfk%d fast: %v", k.ID, err)
		}
		if err := c.Validate(cpu); err != nil {
			t.Fatalf("lfk%d fast path numerical validation: %v", k.ID, err)
		}
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("lfk%d: fast-path stats diverge from naive reference:\nfast  %+v\nnaive %+v",
				k.ID, fast, naive)
		}
		if err := fast.Attr.Conserved(fast.Cycles); err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
	}
}

// TestAnalyzerMatchesAnalyzeSourceVM checks the facade's Analyzer
// against the one-shot path: same bounds, same simulator outcome, same
// measured CPL — with one Analyzer shared by 8 goroutines, each
// analyzing every kernel twice, so the race detector sees concurrent
// use.
func TestAnalyzerMatchesAnalyzeSourceVM(t *testing.T) {
	cfg := macs.DefaultVMConfig()
	an := macs.NewAnalyzer(cfg)
	kernels := lfk.All()
	want := make([]macs.Result, len(kernels))
	for i, k := range kernels {
		var err error
		if want[i], err = macs.AnalyzeSourceVM(k.Source, int64(k.Elements), cfg, nil); err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- analyzeAll(an, kernels, want)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// analyzeAll analyzes every kernel twice on an and compares each answer
// with want.
func analyzeAll(an *macs.Analyzer, kernels []*lfk.Kernel, want []macs.Result) error {
	for i, k := range kernels {
		for round := 0; round < 2; round++ {
			got, err := an.AnalyzeSource(k.Source, int64(k.Elements), nil)
			switch {
			case err != nil:
				return fmt.Errorf("lfk%d round %d: %w", k.ID, round, err)
			case !reflect.DeepEqual(got.Stats, want[i].Stats):
				return fmt.Errorf("lfk%d round %d: Stats diverge:\ngot  %+v\nwant %+v",
					k.ID, round, got.Stats, want[i].Stats)
			case !reflect.DeepEqual(got.Analysis, want[i].Analysis):
				return fmt.Errorf("lfk%d round %d: Analysis diverges", k.ID, round)
			case got.MeasuredCPL != want[i].MeasuredCPL:
				return fmt.Errorf("lfk%d round %d: MeasuredCPL %v, want %v",
					k.ID, round, got.MeasuredCPL, want[i].MeasuredCPL)
			}
		}
	}
	return nil
}
