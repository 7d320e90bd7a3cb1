package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// passingReport clears every gate but the allocation ceilings, which the
// test varies through fast.
func passingReport(fast map[string]KernelBench) Report {
	return Report{
		Fast: fast,
		Aggregate: Aggregate{
			FastTierSpeedup:              700,
			FastTierMinKernelSpeedup:     200,
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
	})
	if err := writeReport(baseline, base); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fast map[string]KernelBench
		want string // substring of the error; "" passes
	}{
		{"at baseline", map[string]KernelBench{"lfk1": {AllocsPerOp: 1000}, "lfk2": {AllocsPerOp: 200}}, ""},
		{"within tolerance", map[string]KernelBench{"lfk1": {AllocsPerOp: 1100}, "lfk2": {AllocsPerOp: 150}}, ""},
		// lfk2 alone breaks its ceiling although the sum (1,121) stays
		// under the aggregate's (1,320).
		{"one kernel over", map[string]KernelBench{"lfk1": {AllocsPerOp: 900}, "lfk2": {AllocsPerOp: 221}}, "BenchmarkLFK/lfk2 allocates 221"},
		{"kernel missing", map[string]KernelBench{"lfk1": {AllocsPerOp: 1000}}, "BenchmarkLFK/lfk2 did not run"},
	}
	for _, tc := range cases {
		err := gate(passingReport(tc.fast), baseline, 0.10)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
