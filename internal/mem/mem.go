// Package mem implements the Convex C-240 memory subsystem: flat functional
// storage with symbol allocation, a 32-bank interleaved timing model with
// periodic refresh, and a five-port arbiter (four CPUs plus I/O) used for
// the multi-process contention experiments (paper §2, §3.2, §4.2).
package mem

import (
	"encoding/binary"
	"math"

	"macs/internal/isa"
)

// Config holds the memory system timing parameters. The zero value is not
// useful; use DefaultConfig.
type Config struct {
	Banks          int  // number of interleaved banks
	BankCycle      int  // bank busy time per access, in clock cycles
	RefreshPeriod  int  // cycles between refreshes
	RefreshLen     int  // cycles each refresh lasts
	RefreshEnabled bool // model refresh stalls
}

// DefaultConfig returns the standard C-240 configuration: 32 banks, 8-cycle
// bank cycle, refresh every 400 cycles lasting 8 cycles.
func DefaultConfig() Config {
	return Config{
		Banks:          isa.MemBanks,
		BankCycle:      isa.BankCycle,
		RefreshPeriod:  isa.RefreshPeriod,
		RefreshLen:     isa.RefreshLen,
		RefreshEnabled: true,
	}
}

// Memory is the functional storage shared by all CPUs: a flat byte array
// with bump allocation of named symbols. It carries no timing state.
type Memory struct {
	bytes  []byte
	layout Layout
	// dirty is the write high-water mark (one past the highest byte ever
	// written), so Reset can rezero only what a run actually touched
	// instead of reallocating the whole image.
	dirty int64
}

// New creates a memory of the given size in bytes.
func New(size int64) *Memory {
	return &Memory{bytes: make([]byte, size), layout: *NewLayout(size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int64 { return int64(len(m.bytes)) }

// Reset restores the memory to its freshly-created state — all bytes zero,
// no symbols — without reallocating. Only the written region is rezeroed,
// which is what makes pooled simulator reuse cheap: a reset after a
// kernel run touches kilobytes, not the whole multi-megabyte image.
func (m *Memory) Reset() {
	clear(m.bytes[:m.dirty])
	m.layout.Reset()
	m.dirty = 0
}

// Alloc reserves size bytes for a named symbol, 8-byte aligned, and returns
// its base address. Allocating an existing name returns the existing base
// (sizes must then match).
func (m *Memory) Alloc(name string, size int64) (int64, error) {
	return m.layout.Place(name, size)
}

// SymbolAddr resolves a symbol name to its base address.
func (m *Memory) SymbolAddr(name string) (int64, bool) { return m.layout.Addr(name) }

// SymbolSize resolves a symbol name to its allocated size in bytes.
func (m *Memory) SymbolSize(name string) (int64, bool) { return m.layout.SizeOf(name) }

func (m *Memory) check(addr int64, n int64) error {
	return checkRange(addr, n, int64(len(m.bytes)))
}

// ReadF64 loads a 64-bit float.
func (m *Memory) ReadF64(addr int64) (float64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	bits := binary.LittleEndian.Uint64(m.bytes[addr:])
	return math.Float64frombits(bits), nil
}

// WriteF64 stores a 64-bit float.
func (m *Memory) WriteF64(addr int64, v float64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(m.bytes[addr:], math.Float64bits(v))
	if addr+8 > m.dirty {
		m.dirty = addr + 8
	}
	return nil
}

// ReadI64 loads a 64-bit integer.
func (m *Memory) ReadI64(addr int64) (int64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(m.bytes[addr:])), nil
}

// WriteI64 stores a 64-bit integer.
func (m *Memory) WriteI64(addr int64, v int64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(m.bytes[addr:], uint64(v))
	if addr+8 > m.dirty {
		m.dirty = addr + 8
	}
	return nil
}

// BankOf returns the interleaved bank index of an address under cfg:
// consecutive 8-byte words map to consecutive banks.
func (cfg Config) BankOf(addr int64) int {
	w := addr / isa.WordBytes
	b := int(w % int64(cfg.Banks))
	if b < 0 {
		b += cfg.Banks
	}
	return b
}

// InRefresh reports whether the given cycle falls inside a refresh window.
// Negative cycles are treated on the same periodic schedule (the phase is
// normalized into [0, RefreshPeriod)).
func (cfg Config) InRefresh(cycle int64) bool {
	if !cfg.RefreshEnabled || cfg.RefreshPeriod <= 0 {
		return false
	}
	off := cycle % int64(cfg.RefreshPeriod)
	if off < 0 {
		off += int64(cfg.RefreshPeriod)
	}
	return off < int64(cfg.RefreshLen)
}

// NextFree returns the first cycle at or after now that is outside any
// refresh window. Negative cycles follow the same normalized schedule.
func (cfg Config) NextFree(now int64) int64 {
	if !cfg.RefreshEnabled || cfg.RefreshPeriod <= 0 {
		return now
	}
	off := now % int64(cfg.RefreshPeriod)
	if off < 0 {
		off += int64(cfg.RefreshPeriod)
	}
	if off < int64(cfg.RefreshLen) {
		return now + int64(cfg.RefreshLen) - off
	}
	return now
}
