package experiments

import "testing"

func TestMachineComparison(t *testing.T) {
	rows, err := RunMachineComparison(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]MachineRow{}
	for _, r := range rows {
		if r.AvgMeasuredCPF < r.AvgMACSCPF {
			t.Errorf("%s: measured %.3f below bound %.3f", r.Name, r.AvgMeasuredCPF, r.AvgMACSCPF)
		}
		byName[r.Name[:4]] = r
		t.Logf("%-40s bound %6.2f MFLOPS, measured %6.2f MFLOPS", r.Name, r.BoundMFLOPS, r.MFLOPS)
	}
	// The C-240's flexible chaining and VL=128 beat both Cray-like
	// configurations on this workload.
	c240 := byName["Conv"]
	for tag, r := range byName {
		if tag == "Conv" {
			continue
		}
		if r.MFLOPS >= c240.MFLOPS {
			t.Errorf("%s (%.2f MFLOPS) should trail the C-240 (%.2f)", r.Name, r.MFLOPS, c240.MFLOPS)
		}
	}
}
