// Package vm implements a cycle-level simulator of one Convex C-240 CPU:
// the Address/Scalar Unit (ASU) executing scalar instructions in order, and
// the Vector Processor (VP) executing vector instructions grouped into
// chimes on its three function pipes with operand chaining and tailgating
// bubbles (paper §2, §3.2, §3.3).
//
// Timing semantics (chime-synchronized VP):
//
//   - Vector instructions are grouped into chimes using the same issue
//     rules as the MACS bound (core.ChimeBuilder), because those rules are
//     a description of the hardware's own chime formation.
//   - A chime's first instruction begins streaming no earlier than the
//     previous chime's start plus that chime's cost (Z_max*VL + sum of
//     bubbles + memory stalls) — the serialization the paper's calibration
//     loops observe — and no earlier than its pipe's tailgate time.
//   - Within a chime, a dependent instruction chains: it begins streaming
//     when the producer's first element result is available (Figure 2).
//     Across chimes, a consumer waits for the producer to complete.
//   - Vector memory streams suffer bank-conflict and refresh stalls from
//     the internal/mem bank model; scalar memory accesses contend with
//     vector streams for the single CPU memory port.
//
// Functional execution runs in lockstep with the timing model, so programs
// compute real results that can be validated against reference code.
package vm

import (
	"macs/internal/isa"
)

// Config controls one simulation: the Machine being simulated (embedded,
// so the machine knobs read as cfg.VLMax, cfg.Banks, ... exactly as
// before the split) plus the run-bound settings — memory image size,
// runaway budgets, the memory-path selector and tracing. Use
// DefaultConfig and adjust.
type Config struct {
	// Machine describes the simulated hardware; see vm.Machine. Its
	// fields are promoted, and it marshals flat, so the wire and cache-key
	// shape of a Config predates the machine/run split.
	Machine
	// MemSize is the size of the simulated memory in bytes.
	MemSize int64
	// MaxCycles and MaxInstrs abort runaway programs.
	MaxCycles int64
	MaxInstrs int64
	// NaiveMemPath disables the memoized stream-stall table and answers
	// every vector memory stream with the naive per-element bank walk. The
	// two paths are bit-equivalent (the fast-path differential tests gate
	// on it); this flag exists to keep the reference implementation alive
	// and selectable.
	NaiveMemPath bool
	// Trace records per-vector-instruction timing events (Figure 2).
	Trace bool
	// TraceRing, when > 0 and Trace is off, records the most recent
	// TraceRing vector timing events in a bounded ring buffer — cheap
	// always-on tracing for long runs. Retrieve with CPU.TraceEvents,
	// export with macs.ChromeTrace.
	TraceRing int
}

// DefaultConfig returns the standard C-240 configuration.
func DefaultConfig() Config {
	return Config{
		Machine:   DefaultMachine(),
		MemSize:   16 << 20,
		MaxCycles: 1 << 40,
		MaxInstrs: 200_000_000,
	}
}

// WithMachine returns the run configuration with its machine description
// replaced — the explore engine's way of stamping one run template over
// every point of a sweep.
func (c Config) WithMachine(m Machine) Config {
	c.Machine = m
	return c
}

// Stats aggregates a run's outcome.
type Stats struct {
	Cycles        int64 // completion time of the whole program
	Instrs        int64 // instructions executed
	VectorInstrs  int64
	ScalarInstrs  int64
	Chimes        int64
	MemStalls     int64 // bank + refresh stall cycles in vector streams
	PortConflicts int64 // scalar accesses delayed by vector streams
	VectorFlops   int64 // element results from the add and multiply pipes
	ScalarFlops   int64
	VectorElems   int64 // elements moved by vector loads and stores
	// PipeBusy accumulates input-side streaming cycles per VP pipe
	// (indexed by isa.Pipe); divide by Cycles for utilization.
	PipeBusy [4]int64
	// Attr is the per-lane stall-attribution ledger: for every lane (the
	// ASU plus the three VP pipes) issue cycles plus attributed stall
	// cycles exactly equal Cycles once the run finishes (conservation;
	// see Attribution.Conserved).
	Attr Attribution
}

// Utilization returns the fraction of the run each pipe spent streaming.
func (s Stats) Utilization(p isa.Pipe) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.PipeBusy[p]) / float64(s.Cycles)
}

// TraceEvent records the timing of one vector instruction.
type TraceEvent struct {
	Instr       isa.Instr
	Chime       int64 // chime sequence number (1-based)
	Dispatch    int64 // ASU dispatch completion
	Start       int64 // stream entry time S
	FirstResult int64 // S + Y
	Finish      int64 // last element written
	Stall       int64 // memory stall cycles inside the stream
	VL          int
}
