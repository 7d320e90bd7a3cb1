package vm

import (
	"crypto/sha256"
	"fmt"

	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/mem"
)

// Machine is the description of one hypothetical machine: everything
// about the hardware the timing model depends on, and nothing about how
// a particular run is driven (memory image size, instruction budgets,
// tracing — those stay in Config). Splitting the two is what makes
// design-space exploration cheap: a sweep varies Machines while sharing
// one compiled program and one run configuration.
//
// The zero value is not a useful machine; use DefaultMachine and adjust.
// Machine is comparable, so == tells two machines apart; the persistent
// result cache keys off Fingerprint.
type Machine struct {
	// VLMax is the hardware vector length (128 on the C-240).
	VLMax int
	// Rules are the chime formation rules shared with the MACS bound:
	// chaining, the register pair rule, the memory-port split rule,
	// tailgating bubbles.
	Rules core.Rules
	// Memory geometry: interleaved bank count, bank busy time per access,
	// and the refresh schedule (cycles between refreshes, cycles each one
	// lasts). Zero fields fall back to the C-240 values (32 banks, 8-cycle
	// bank busy, refresh every 400 cycles for 8), so configurations from
	// before the machine split keep their meaning.
	Banks         int
	BankCycle     int
	RefreshPeriod int
	RefreshLen    int
	// BankConflicts enables bank-busy stalls for non-unit strides.
	BankConflicts bool
	// RefreshStalls enables real refresh stalls in vector memory streams.
	RefreshStalls bool
	// MemSlowdown multiplies the per-element cost of vector memory
	// streams and scalar memory latency; >1 models multi-process memory
	// contention (paper §4.2). 1.0 means an otherwise idle machine.
	MemSlowdown float64
	// Scalar timing: ASU latencies in cycles.
	ScalarLoadLat int // scalar load/store
	ScalarOpLat   int // scalar ALU op, move, compare
	BranchPenalty int // extra cycles for a taken branch
	DispatchLat   int // ASU cycles to dispatch a vector instruction
}

// DefaultMachine returns the paper's Convex C-240.
func DefaultMachine() Machine {
	return Machine{
		VLMax:         isa.VLMax,
		Rules:         core.DefaultRules(),
		Banks:         isa.MemBanks,
		BankCycle:     isa.BankCycle,
		RefreshPeriod: isa.RefreshPeriod,
		RefreshLen:    isa.RefreshLen,
		BankConflicts: true,
		RefreshStalls: true,
		MemSlowdown:   1.0,
		ScalarLoadLat: 4,
		ScalarOpLat:   1,
		BranchPenalty: 2,
		DispatchLat:   1,
	}
}

// Check refuses a machine no program can be compiled for: its VLMax must
// lie in 1..isa.VLMax, the vector register length. Every entry point
// that compiles or runs for a caller's machine (the facade, the service,
// an explore grid) asks it first, so all of them refuse alike.
func (m Machine) Check() error {
	if m.VLMax < 1 || m.VLMax > isa.VLMax {
		return fmt.Errorf("vm: VLMax %d is outside 1..%d, the vector register length", m.VLMax, isa.VLMax)
	}
	return nil
}

// CompileVL is the vector length a program for this machine is compiled,
// and therefore bounded, at: its VLMax. A program's strip loop advances
// by the compile-time VL while the hardware clamps each strip's VL at
// VLMax, so the two must be equal, or strips skip or repeat elements.
// Check refuses a VLMax the vector registers cannot hold.
func (m Machine) CompileVL() int { return m.VLMax }

// BankConfig renders the machine's memory geometry as the bank model's
// configuration. Zero geometry fields take the C-240 defaults — a Machine
// that only sets the knobs that existed before the split (or a sparse
// sweep point) still describes a well-formed memory system rather than a
// zero-bank one.
func (m Machine) BankConfig() mem.Config {
	c := mem.DefaultConfig()
	if m.Banks > 0 {
		c.Banks = m.Banks
	}
	if m.BankCycle > 0 {
		c.BankCycle = m.BankCycle
	}
	if m.RefreshPeriod > 0 {
		c.RefreshPeriod = m.RefreshPeriod
	}
	if m.RefreshLen > 0 {
		c.RefreshLen = m.RefreshLen
	}
	c.RefreshEnabled = m.RefreshStalls
	return c
}

// Fingerprint returns the canonical content hash of the machine
// description: the SHA-256 of its Go-syntax rendering, which names every
// field — nested Rules included — by construction, so two machines share
// a fingerprint only when they are the same machine. The persistent
// result cache keys off it, and every explore point reports it.
func (m Machine) Fingerprint() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", m))))
}
