// Package lfk defines the ten Livermore Fortran Kernels of the paper's
// case study (LFK 1, 2, 3, 4, 6, 7, 8, 9, 10, 12): their Fortran-subset
// sources, deterministic input data, pure-Go reference implementations for
// functional validation of the simulator, and the paper's published
// numbers for shape comparison.
package lfk

import (
	"fmt"

	"macs/internal/compiler"
	"macs/internal/core"
)

// Kernel is one benchmark kernel.
type Kernel struct {
	ID     int
	Name   string
	Source string
	// N is the problem size (the kernel's loop span).
	N int64
	// Elements is the total number of inner-loop iterations the kernel
	// executes — the divisor that converts cycles to CPL.
	Elements int
	// Entries is the number of times the inner loop is entered (outer
	// iterations or GOTO passes); it drives the extended short-vector
	// bound. 1 for flat loops.
	Entries int
	// EntryLengths, when set, gives each entry's exact element count
	// (LFK2's halving cascade, LFK6's triangular lengths).
	EntryLengths []int
	// Inputs prime the kernel's scalars and arrays; Ints, Reals and
	// Arrays read them.
	compiler.Inputs
	// Outputs names the variables whose final contents the reference
	// validates (arrays compared element-wise, scalars as length 1).
	Outputs []string
	// Reference computes the expected final state from copies of the
	// primed inputs.
	Reference func(k *Kernel) map[string][]float64
	// Paper records the published Table 4 values (CPF) for this kernel.
	Paper PaperRow
}

// PaperRow holds the paper's Table 4 row: the bounds hierarchy and the
// measured single-process performance, all in cycles per flop.
type PaperRow struct {
	TMA, TMAC, TMACS, TP float64
	// MA is the paper's MA workload where derivable from Tables 2-3.
	MA core.Workload
}

// outerScalarOps is the scalar-op budget the extended bound charges per
// inner-loop entry (count computation, base setup, epilogue).
const outerScalarOps = 30

// Shape returns the loop shape the extended bound t_MACS+ prices the
// kernel with: its elements, entries and per-entry lengths, and the
// outer-loop scalar budget. Every t_MACS+ reported for an LFK is built
// from it.
func (k *Kernel) Shape() core.LoopShape {
	return core.LoopShape{
		Elements:       k.Elements,
		Entries:        k.Entries,
		EntryLengths:   k.EntryLengths,
		OuterScalarOps: outerScalarOps,
	}
}

// FlopsPerIteration returns the high-level flop count per inner-loop
// iteration (f_a + f_m of the MA workload).
func (k *Kernel) FlopsPerIteration() int { return k.Paper.MA.Flops() }

// CPL converts a cycle count for the whole kernel run into cycles per
// inner-loop iteration.
func (k *Kernel) CPL(cycles int64) float64 {
	return float64(cycles) / float64(k.Elements)
}

// CPF converts a cycle count into cycles per floating point operation.
func (k *Kernel) CPF(cycles int64) float64 {
	return k.CPL(cycles) / float64(k.FlopsPerIteration())
}

// All returns the ten kernels of the case study, in paper order.
func All() []*Kernel {
	return []*Kernel{
		LFK1(), LFK2(), LFK3(), LFK4(), LFK6(),
		LFK7(), LFK8(), LFK9(), LFK10(), LFK12(),
	}
}

// ByID returns one kernel.
func ByID(id int) (*Kernel, error) {
	for _, k := range All() {
		if k.ID == id {
			return k, nil
		}
	}
	return nil, fmt.Errorf("lfk: no kernel %d in the case study", id)
}

// gen produces deterministic, well-conditioned input data: values in
// [0.5, 1.5) with no short period.
func gen(seed, i int) float64 {
	x := uint64(i+1)*2654435761 + uint64(seed)*40503
	x ^= x >> 16
	return 0.5 + float64(x%1000)/1000.0
}

// fill builds an array of n generated values.
func fill(seed, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = gen(seed, i)
	}
	return out
}
