// Package mem implements the Convex C-240 memory subsystem: paged functional
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

// Memory is the functional storage shared by all CPUs: a byte-addressed
// image of Size bytes with bump allocation of named symbols. It carries
// no timing state. Storage is paged: a page is allocated on its first
// write, and memory never written reads as zero, so a run costs what its
// program touches rather than the whole image.
type Memory struct {
	// pages holds the written pages by page number; a nil or missing
	// entry is a page never written. It grows to the highest page written.
	pages  []*page
	layout Layout
}

// pageShift sets the 4 KB page size.
const pageShift = 12

type page [1 << pageShift]byte

// offMask extracts an address's offset within its page.
const offMask = len(page{}) - 1

// New creates a memory of the given size in bytes.
func New(size int64) *Memory {
	return &Memory{layout: *NewLayout(size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int64 { return m.layout.size }

// Alloc reserves size bytes for a named symbol, 8-byte aligned, and returns
// its base address. A name is allocated at most once (Layout.Place).
func (m *Memory) Alloc(name string, size int64) (int64, error) {
	return m.layout.Place(name, size)
}

// SymbolAddr resolves a symbol name to its base address.
func (m *Memory) SymbolAddr(name string) (int64, bool) { return m.layout.Addr(name) }

// load reads the 8 bytes at an in-range addr as a little-endian word.
func (m *Memory) load(addr int64) uint64 {
	if off := int(addr) & offMask; off <= offMask-7 {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint64(p[off:])
		}
		return 0
	}
	var b [8]byte // the word straddles two pages
	for i := range b {
		a := addr + int64(i)
		if p := m.lookup(a); p != nil {
			b[i] = p[int(a)&offMask]
		}
	}
	return binary.LittleEndian.Uint64(b[:])
}

// store writes v at an in-range addr as a little-endian word.
func (m *Memory) store(addr int64, v uint64) {
	if off := int(addr) & offMask; off <= offMask-7 {
		binary.LittleEndian.PutUint64(m.page(addr)[off:], v)
		return
	}
	var b [8]byte // the word straddles two pages
	binary.LittleEndian.PutUint64(b[:], v)
	for i, x := range b {
		a := addr + int64(i)
		m.page(a)[int(a)&offMask] = x
	}
}

// lookup returns the page holding addr, nil if it was never written.
func (m *Memory) lookup(addr int64) *page {
	if n := addr >> pageShift; n < int64(len(m.pages)) {
		return m.pages[n]
	}
	return nil
}

// page returns the page holding addr, allocating it on first write.
func (m *Memory) page(addr int64) *page {
	n := int(addr >> pageShift)
	if n >= len(m.pages) {
		m.pages = append(m.pages, make([]*page, n+1-len(m.pages))...)
	}
	if m.pages[n] == nil {
		m.pages[n] = new(page)
	}
	return m.pages[n]
}

// ReadF64 loads a 64-bit float.
func (m *Memory) ReadF64(addr int64) (float64, error) {
	if err := m.layout.Check(addr, 8); err != nil {
		return 0, err
	}
	return math.Float64frombits(m.load(addr)), nil
}

// WriteF64 stores a 64-bit float.
func (m *Memory) WriteF64(addr int64, v float64) error {
	if err := m.layout.Check(addr, 8); err != nil {
		return err
	}
	m.store(addr, math.Float64bits(v))
	return nil
}

// ReadI64 loads a 64-bit integer.
func (m *Memory) ReadI64(addr int64) (int64, error) {
	if err := m.layout.Check(addr, 8); err != nil {
		return 0, err
	}
	return int64(m.load(addr)), nil
}

// WriteI64 stores a 64-bit integer.
func (m *Memory) WriteI64(addr int64, v int64) error {
	if err := m.layout.Check(addr, 8); err != nil {
		return err
	}
	m.store(addr, uint64(v))
	return nil
}

// ReadStream loads len(dst) 64-bit floats from base at stride bytes — a
// vector load's stream. The whole stream is range-checked once
// (Layout.CheckStream); an out-of-range stream fails with the error its
// first out-of-range element would raise, and loads nothing. Successive
// elements on one page share its lookup.
func (m *Memory) ReadStream(base, stride int64, dst []float64) error {
	if err := m.layout.CheckStream(base, stride, len(dst)); err != nil {
		return err
	}
	var p *page
	pn := int64(-1)
	addr := base
	for k := range dst {
		off := int(addr) & offMask
		if off > offMask-7 {
			dst[k] = math.Float64frombits(m.load(addr)) // straddles two pages
		} else {
			if n := addr >> pageShift; n != pn {
				p, pn = m.lookup(addr), n
			}
			if p != nil {
				dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			} else {
				dst[k] = 0
			}
		}
		addr += stride
	}
	return nil
}

// WriteStream stores src as 64-bit floats from base at stride bytes — a
// vector store's stream, or an array written whole. It is checked like
// ReadStream, and an out-of-range stream stores nothing.
func (m *Memory) WriteStream(base, stride int64, src []float64) error {
	if err := m.layout.CheckStream(base, stride, len(src)); err != nil {
		return err
	}
	var p *page
	pn := int64(-1)
	addr := base
	for _, v := range src {
		off := int(addr) & offMask
		if off > offMask-7 {
			m.store(addr, math.Float64bits(v)) // straddles two pages
		} else {
			if n := addr >> pageShift; n != pn {
				p, pn = m.page(addr), n
			}
			binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
		}
		addr += stride
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
