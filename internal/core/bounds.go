package core

import (
	"macs/internal/isa"
)

// MACSResult is the outcome of the MACS bound calculation for one inner
// loop at one vector length.
type MACSResult struct {
	Chimes []Chime
	// Cycles is the bounded number of clock cycles for one iteration of
	// the vectorized loop (VL elements), including bubbles and the
	// memory-refresh factor.
	Cycles float64
	// CPL is Cycles / VL.
	CPL float64
	// RefreshCycles is the part of Cycles contributed by the 1.02
	// refresh factor.
	RefreshCycles float64
	VL            int
}

// MACSBound computes t_MACS for a compiled inner-loop body (paper §3.4):
// partition into chimes, charge each chime Z_max*VL + sum(B), and multiply
// each group of four or more successive memory chimes by 1.02. The chime
// sequence is treated cyclically, since the loop body repeats and the
// interaction of the last chime with the first must be considered.
func MACSBound(body []isa.Instr, vl int, rules Rules) MACSResult {
	return chimeBound(Partition(body, rules), vl, rules)
}

// chimeBound prices a chime sequence at vector length vl: the chimes'
// costs plus the refresh penalty, the tail t_MACS and t_MACSD share.
func chimeBound(chimes []Chime, vl int, rules Rules) MACSResult {
	res := MACSResult{Chimes: chimes, VL: vl}
	if len(chimes) == 0 || vl <= 0 {
		return res
	}
	costs := make([]float64, len(chimes))
	var total float64
	for i, c := range chimes {
		costs[i] = c.Cost(vl, rules)
		total += costs[i]
	}
	if rules.Refresh {
		res.RefreshCycles = refreshPenalty(chimes, costs)
	}
	res.Cycles = total + res.RefreshCycles
	res.CPL = res.Cycles / float64(vl)
	return res
}

// refreshPenalty returns the extra cycles charged by the refresh factor:
// (RefreshFactor-1) times the cost of every maximal cyclic run of
// successive memory chimes of length four or more.
func refreshPenalty(chimes []Chime, costs []float64) float64 {
	n := len(chimes)
	allMem := true
	for _, c := range chimes {
		if !c.HasMem {
			allMem = false
			break
		}
	}
	var runCost float64
	if allMem {
		if n < 4 {
			return 0
		}
		for _, c := range costs {
			runCost += c
		}
		return (isa.RefreshFactor - 1) * runCost
	}
	// Walk the cyclic sequence starting just after a non-memory chime so
	// every run is seen exactly once and wrapping runs are intact.
	start := 0
	for i, c := range chimes {
		if !c.HasMem {
			start = i + 1
			break
		}
	}
	var penalty float64
	runLen := 0
	var run float64
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if chimes[i].HasMem {
			runLen++
			run += costs[i]
			continue
		}
		if runLen >= 4 {
			penalty += (isa.RefreshFactor - 1) * run
		}
		runLen, run = 0, 0
	}
	if runLen >= 4 {
		penalty += (isa.RefreshFactor - 1) * run
	}
	return penalty
}

// StripMemOps returns a copy of the body with all vector memory access
// operations deleted: the input to the t_MACS^f (execute-only) bound.
func StripMemOps(body []isa.Instr) []isa.Instr {
	var out []isa.Instr
	for _, in := range body {
		if in.IsVector() && in.IsMemory() {
			continue
		}
		out = append(out, in)
	}
	return out
}

// StripFPOps returns a copy of the body with all vector floating point
// operations deleted: the input to the t_MACS^m (access-only) bound.
func StripFPOps(body []isa.Instr) []isa.Instr {
	var out []isa.Instr
	for _, in := range body {
		if in.IsVector() {
			switch in.Class() {
			case isa.ClassFPAdd, isa.ClassFPMul:
				continue
			}
		}
		out = append(out, in)
	}
	return out
}

// Analysis bundles the complete bounds hierarchy for one kernel.
type Analysis struct {
	// MA is the high-level workload (perfect index analysis); MAC is the
	// workload counted from the compiled assembly.
	MA, MAC Workload
	// TMA and TMAC are the MA and MAC bounds in CPL.
	TMA, TMAC float64
	// MACS is the full schedule-specific bound; MACSF and MACSM are the
	// reduced-list bounds with memory / floating point operations deleted.
	MACS, MACSF, MACSM MACSResult
	VL                 int
	// TCP is the dependence critical-path lower bound in CPL, computed by
	// internal/depgraph and filled in by the facade (core itself never
	// sees the whole program). Zero when no per-element dependence claim
	// could be made (no vector loop, or a non-straight-line body).
	TCP float64
}

// Analyze computes the full MA/MAC/MACS hierarchy for a kernel given its
// high-level (MA) workload and the compiled inner-loop body.
func Analyze(ma Workload, body []isa.Instr, vl int, rules Rules) Analysis {
	a := Analysis{
		MA:  ma,
		MAC: WorkloadFromAssembly(body),
		VL:  vl,
	}
	a.TMA = ma.Bound()
	a.TMAC = a.MAC.Bound()
	a.MACS = MACSBound(body, vl, rules)
	a.MACSF = MACSBound(StripMemOps(body), vl, rules)
	a.MACSM = MACSBound(StripFPOps(body), vl, rules)
	return a
}

// CPFs returns the hierarchy converted to cycles per flop: t_MA, t_MAC and
// t_MACS divided by the high-level flop count.
func (a Analysis) CPFs() (tma, tmac, tmacs float64) {
	return CPF(a.TMA, a.MA), CPF(a.TMAC, a.MA), CPF(a.MACS.CPL, a.MA)
}
