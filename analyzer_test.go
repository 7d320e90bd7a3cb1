package macs_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"macs"
	"macs/internal/lfk"
)

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
