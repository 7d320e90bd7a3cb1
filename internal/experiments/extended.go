package experiments

import (
	"macs"
	"macs/internal/asm"
	"macs/internal/core"
)

// ExtendedRow compares the plain MACS bound, the short-vector extended
// bound t_MACS+ and the decomposition-aware bound t_MACSD with measured
// performance (all CPL). This is this repository's extension experiment:
// the paper names strip-mining, startup, reductions and outer scalar
// code as the causes of its biggest unexplained gaps (§4.4) and proposes
// the D degree of freedom (§3.1); here both are modeled.
type ExtendedRow struct {
	ID                   int
	TMACS, TPlus, TD, TP float64
	PctMACS, PctPlus     float64 // bound / measured
}

// Extended is the extension table: each kernel's compiled loop priced
// under the chime rules the run used, t_MACSD at the vector length it
// was bounded at.
func Extended(rs []macs.KernelResult, rules core.Rules) []ExtendedRow {
	var rows []ExtendedRow
	for _, r := range rs {
		k := r.Kernel
		// RunKernel bounded this loop, so the program has one.
		loop, _ := asm.InnerVectorLoop(r.Program)
		row := ExtendedRow{
			ID:    k.ID,
			TMACS: r.Analysis.MACS.CPL,
			TPlus: core.ExtendedBound(loop.Body, k.Shape(), rules).CPL,
			TD:    core.MACSDBound(loop.Body, r.Analysis.VL, rules).CPL,
			TP:    r.MeasuredCPL,
		}
		if row.TP > 0 {
			row.PctMACS = row.TMACS / row.TP
			row.PctPlus = row.TPlus / row.TP
		}
		rows = append(rows, row)
	}
	return rows
}

// DiagnoseAll is the §4.4 advisor's diagnosis of every kernel, by id.
func DiagnoseAll(rs []macs.KernelResult) map[int]macs.Diagnosis {
	out := make(map[int]macs.Diagnosis, len(rs))
	for _, r := range rs {
		out[r.Kernel.ID] = r.Diagnosis()
	}
	return out
}
