package experiments

import (
	"fmt"

	"macs/internal/advisor"
	"macs/internal/asm"
	"macs/internal/core"
	"macs/internal/lfk"
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

// RunExtended computes the extension table for every kernel.
func RunExtended(cfg Config) ([]ExtendedRow, error) {
	results, err := RunAll(cfg)
	if err != nil {
		return nil, err
	}
	var rows []ExtendedRow
	for _, r := range results {
		k := r.Kernel
		c, err := lfk.Compile(k, cfg.Compiler)
		if err != nil {
			return nil, err
		}
		loop, ok := asm.InnerVectorLoop(c.Program)
		if !ok {
			return nil, fmt.Errorf("lfk%d: no vector loop", k.ID)
		}
		ext := core.ExtendedBound(loop.Body, k.Shape(), cfg.VM.Rules)
		tp := k.CPL(r.Cycles)
		row := ExtendedRow{
			ID:    k.ID,
			TMACS: r.Analysis.MACS.CPL,
			TPlus: ext.CPL,
			TD:    core.MACSDBound(loop.Body, cfg.VM.VLMax, cfg.VM.Rules).CPL,
			TP:    tp,
		}
		if tp > 0 {
			row.PctMACS = row.TMACS / tp
			row.PctPlus = row.TPlus / tp
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DiagnoseAll runs the §4.4 advisor over every kernel.
func DiagnoseAll(cfg Config) (map[int]advisor.Diagnosis, error) {
	results, err := RunAll(cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[int]advisor.Diagnosis, len(results))
	for i := range results {
		r := &results[i]
		k := r.Kernel
		out[k.ID] = advisor.Diagnose(advisor.Inputs{
			Analysis: r.Analysis,
			TP:       k.CPL(r.AX.TP),
			TA:       k.CPL(r.AX.TA),
			TX:       k.CPL(r.AX.TX),
			Attr:     &r.Stats.Attr,
		})
	}
	return out, nil
}
