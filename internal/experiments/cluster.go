package experiments

import (
	"fmt"

	"macs"
	"macs/internal/vm"
)

// ClusterRow reports one kernel's multi-process behaviour measured by
// true four-CPU co-simulation over the shared 32 banks, rather than by
// the derived slowdown factor RunFigure3 applies.
type ClusterRow struct {
	ID int
	// SoloCPL is the single-CPU run; ClusterCPL is the slowest of four
	// CPUs running the same kernel concurrently.
	SoloCPL, ClusterCPL float64
	// Degradation is ClusterCPL/SoloCPL.
	Degradation float64
}

// RunClusterContention co-simulates four copies of every kernel of the
// run rs, which simulated cfg's machine, on the shared banks (the
// paper's same-executable case: processes fall into lockstep and lose
// only 5-10%). Each kernel's solo time is its run in rs.
func RunClusterContention(cfg Config, rs []macs.KernelResult) ([]ClusterRow, error) {
	var rows []ClusterRow
	for _, r := range rs {
		k := r.Kernel
		cl := vm.NewCluster([]vm.Config{cfg.VM, cfg.VM, cfg.VM, cfg.VM})
		for i := 0; i < cl.Size(); i++ {
			cpu := cl.CPU(i)
			if err := cpu.Load(r.Program); err != nil {
				return nil, err
			}
			if err := k.Inputs.Write(cpu); err != nil {
				return nil, err
			}
		}
		stats, err := cl.Run()
		if err != nil {
			return nil, fmt.Errorf("lfk%d: %w", k.ID, err)
		}
		worst := int64(0)
		for _, st := range stats {
			if st.Cycles > worst {
				worst = st.Cycles
			}
		}
		row := ClusterRow{
			ID:         k.ID,
			SoloCPL:    r.MeasuredCPL,
			ClusterCPL: k.CPL(worst),
		}
		row.Degradation = row.ClusterCPL / row.SoloCPL
		rows = append(rows, row)
	}
	return rows, nil
}
