package core

import (
	"math"

	"macs/internal/isa"
)

// This file extends the MACS bound with the effects the paper leaves
// unmodeled but names as the causes of its largest gaps (§4.4): strip
// mining at short vector lengths, per-entry pipeline startup, reduction
// drain, and outer-loop scalar overhead ("Outer loop overhead and scalar
// code could be modeled as in [5]"). The result, t_MACS+, tightens the
// explanation of kernels like LFK 2, 4 and 6 whose inner loops are
// entered many times with few elements.

// LoopShape describes how a kernel drives its inner loop.
type LoopShape struct {
	// Elements is the total number of inner-loop iterations executed.
	Elements int
	// Entries is the number of times the inner loop is entered (outer
	// iterations / GOTO passes). 1 for a single flat loop.
	Entries int
	// EntryLengths, when set, gives the exact element count of each
	// entry (e.g. LFK2's halving cascade 50,25,12,6,3); it overrides the
	// uniform Elements/Entries split.
	EntryLengths []int
	// OuterScalarOps estimates the scalar operations executed per entry
	// outside the strip loop (loop control, address setup, epilogues).
	OuterScalarOps int
}

// AverageVL returns the mean elements per entry, clamped to the hardware
// vector length.
func (s LoopShape) AverageVL() int {
	if s.Entries <= 0 || s.Elements <= 0 {
		return isa.VLMax
	}
	vl := (s.Elements + s.Entries - 1) / s.Entries
	if vl > isa.VLMax {
		return isa.VLMax
	}
	if vl < 1 {
		return 1
	}
	return vl
}

// ExtendedResult is the outcome of the extended bound.
type ExtendedResult struct {
	// CPL is the extended bound in cycles per inner-loop iteration.
	CPL float64
	// Breakdown in cycles per entry.
	StreamCycles    float64 // strip chime costs
	StartupCycles   float64 // pipeline fill at entry
	ReductionCycles float64 // accumulator clear + final sum drain
	ScalarCycles    float64 // outer scalar estimate
}

// ExtendedBound computes t_MACS+ for a compiled inner loop driven with
// the given shape:
//
//   - each entry runs ceil(e/VLMax) strips; full strips cost the MACS
//     chime total at VL = VLMax, the last strip at the residual length;
//   - each entry pays the pipeline startup of the first chime
//     (X + Y of its head instruction);
//   - each reduction pays an accumulator clear and a final sum drain at
//     the entry's effective vector length;
//   - each entry pays the scalar overhead estimate at one op per cycle.
func ExtendedBound(body []isa.Instr, shape LoopShape, rules Rules) ExtendedResult {
	var res ExtendedResult
	if shape.Elements <= 0 {
		return res
	}
	entries := shape.Entries
	if entries <= 0 {
		entries = 1
	}
	lengths := shape.EntryLengths
	if len(lengths) == 0 {
		// Uniform split.
		per := float64(shape.Elements) / float64(entries)
		lengths = make([]int, entries)
		for i := range lengths {
			lengths[i] = int(math.Ceil(per))
		}
	}

	chimeTotal := func(vl int) float64 {
		if vl <= 0 {
			return 0
		}
		return MACSBound(body, vl, rules).Cycles
	}

	// Per-entry fixed costs.
	var startup float64
	chimes := Partition(body, rules)
	if len(chimes) > 0 && len(chimes[0].Members) > 0 {
		if t, ok := isa.VectorTiming(chimes[0].Members[0].Op); ok {
			startup = float64(t.X + t.Y)
		}
	}
	reductions := countReductions(body)
	sumT, _ := isa.VectorTiming(isa.OpSum)

	var total float64
	nEntries := 0
	for _, e := range lengths {
		if e <= 0 {
			continue
		}
		nEntries++
		// Strips: full strips at VLMax, the residue at its own length.
		stream := float64(e/isa.VLMax) * chimeTotal(isa.VLMax)
		if rem := e % isa.VLMax; rem > 0 {
			stream += chimeTotal(rem)
		}
		var red float64
		if reductions > 0 {
			vl := e
			if vl > isa.VLMax {
				vl = isa.VLMax
			}
			drain := float64(sumT.X+sumT.Y) + sumT.Z*float64(vl)
			clear := float64(vl) + 12
			red = float64(reductions) * (drain + clear + 16)
		}
		total += stream + startup + red + float64(shape.OuterScalarOps)
		// Accumulate the per-entry averages for the breakdown.
		res.StreamCycles += stream
		res.ReductionCycles += red
	}
	if nEntries == 0 {
		return res
	}
	res.StreamCycles /= float64(nEntries)
	res.ReductionCycles /= float64(nEntries)
	res.StartupCycles = startup
	res.ScalarCycles = float64(shape.OuterScalarOps)
	res.CPL = total / float64(shape.Elements)
	return res
}

// countReductions counts vector sum instructions and accumulator-style
// adds (an add whose source and destination are the same register) in
// the body; either pattern indicates one folded reduction. Strip-mined
// loops keep the sum outside the body, so the accumulate add is the
// reliable marker.
func countReductions(body []isa.Instr) int {
	n := 0
	for i := range body {
		in := &body[i]
		if !in.IsVector() {
			continue
		}
		if in.Op == isa.OpSum {
			n++
			continue
		}
		if in.Op != isa.OpAdd {
			continue
		}
		r, err := isa.Decode(in)
		if err != nil {
			continue
		}
		if d, ok := r.VectorWrite(); ok {
			for _, v := range r.VectorReads() {
				if int(v) == d {
					n++
					break
				}
			}
		}
	}
	return n
}
