package experiments

import (
	"macs/internal/core"
	"macs/internal/vm"
)

// Machine is a named machine configuration — the paper's conclusion
// argues the MACS approach "can be generalized ... to assess a broad
// range of machines"; these presets demonstrate it on vector machines
// the paper compares the C-240 against (§3.3). Each preset's programs
// are compiled at its own vector length (vm.Machine.CompileVL), as every
// facade run's are.
type Machine struct {
	Name string
	VM   vm.Config
}

// Machines returns the comparison set:
//
//   - Convex C-240: the paper's machine (VL=128, flexible chaining).
//   - Cray-1-like: VL=64 and no chaining out of memory loads (the
//     Cray-1's rigid chain-slot limitation, §3.3: chaining on the C-240
//     "appears to be much more flexible than the Cray-1").
//   - Cray-2-like: no chaining at all (§3.3: "with the notable exception
//     of the Cray-2").
func Machines() []Machine {
	c240 := Machine{Name: "Convex C-240", VM: vm.DefaultConfig()}

	cray1 := Machine{Name: "Cray-1-like (VL=64, no memory chaining)", VM: vm.DefaultConfig()}
	cray1.VM.VLMax = 64
	cray1.VM.Rules.NoMemoryChaining = true

	cray2 := Machine{Name: "Cray-2-like (no chaining)", VM: vm.DefaultConfig()}
	cray2.VM.Rules.Chaining = false

	return []Machine{c240, cray1, cray2}
}

// MachineRow summarizes one machine over the ten-kernel suite.
type MachineRow struct {
	Name string
	// AvgMACSCPF and AvgMeasuredCPF are suite averages in cycles/flop;
	// MFLOPS are the harmonic means at the 25 MHz clock.
	AvgMACSCPF, AvgMeasuredCPF float64
	BoundMFLOPS, MFLOPS        float64
}

// RunMachineComparison runs the full suite (RunAll, with cfg's fan-out)
// on every machine preset. A kernel whose output misses its reference
// on any preset fails the comparison.
func RunMachineComparison(cfg Config) ([]MachineRow, error) {
	var rows []MachineRow
	for _, m := range Machines() {
		c := cfg
		c.VM = m.VM
		rs, err := RunAll(c)
		if err != nil {
			return nil, err
		}
		row := MachineRow{Name: m.Name}
		for _, r := range rs {
			_, _, tmacs, tp := r.CPFs()
			row.AvgMACSCPF += tmacs
			row.AvgMeasuredCPF += tp
		}
		n := float64(len(rs))
		row.AvgMACSCPF /= n
		row.AvgMeasuredCPF /= n
		row.BoundMFLOPS = core.HarmonicMeanMFLOPS([]float64{row.AvgMACSCPF})
		row.MFLOPS = core.HarmonicMeanMFLOPS([]float64{row.AvgMeasuredCPF})
		rows = append(rows, row)
	}
	return rows, nil
}
