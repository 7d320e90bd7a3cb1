package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// passingReport clears every gate but the allocation ceilings, which the
// test varies through fast (BenchmarkLFK) and tier
// (BenchmarkFastTierCold).
func passingReport(fast, tier map[string]KernelBench) Report {
	return Report{
		Fast:     fast,
		FastTier: tier,
		Aggregate: Aggregate{
			ExplorePointsPerSec:          50000,
			ExploreMinKernelPointsPerSec: 20000,
			ExploreMinPruneRatio:         20,
		},
	}
}

func TestGateAllocationCeilingPerKernel(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "BENCH.json")
	base := passingReport(map[string]KernelBench{
		"lfk1": {AllocsPerOp: 1000},
		"lfk2": {AllocsPerOp: 200},
	}, map[string]KernelBench{
		"lfk1": {AllocsPerOp: 20},
	})
	if err := writeReport(baseline, base); err != nil {
		t.Fatal(err)
	}
	tierOK := map[string]KernelBench{"lfk1": {AllocsPerOp: 20}}
	cases := []struct {
		name       string
		fast, tier map[string]KernelBench
		want       string // substring of the error; "" passes
	}{
		{"at baseline", map[string]KernelBench{"lfk1": {AllocsPerOp: 1000}, "lfk2": {AllocsPerOp: 200}}, tierOK, ""},
		{"within tolerance", map[string]KernelBench{"lfk1": {AllocsPerOp: 1100}, "lfk2": {AllocsPerOp: 150}}, tierOK, ""},
		// lfk2 alone breaks its ceiling although the sum (1,121) stays
		// under the aggregate's (1,320).
		{"one kernel over", map[string]KernelBench{"lfk1": {AllocsPerOp: 900}, "lfk2": {AllocsPerOp: 221}}, tierOK, "BenchmarkLFK/lfk2 allocates 221"},
		{"kernel missing", map[string]KernelBench{"lfk1": {AllocsPerOp: 1000}}, tierOK, "BenchmarkLFK/lfk2 did not run"},
		{"prediction over", base.Fast, map[string]KernelBench{"lfk1": {AllocsPerOp: 23}}, "BenchmarkFastTierCold/lfk1 allocates 23"},
		{"prediction missing", base.Fast, nil, "BenchmarkFastTierCold/lfk1 did not run"},
	}
	for _, tc := range cases {
		err := gate(passingReport(tc.fast, tc.tier), baseline, 0.10)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
