package mem

import "fmt"

// Layout assigns symbol base addresses within a memory of a given size —
// bump allocation from address 64, 8-byte aligned — and range-checks
// accesses against that size. Memory keeps its symbols in one; the
// explore engine's predictor (internal/fasttier) uses one without a byte
// image, so the addresses it predicts and the accesses it rejects are
// the simulator's by construction.
type Layout struct {
	symbols map[string]int64
	next    int64
	size    int64
}

// NewLayout returns an empty layout over a memory of size bytes.
func NewLayout(size int64) *Layout {
	return &Layout{
		symbols: make(map[string]int64),
		next:    layoutBase,
		size:    size,
	}
}

// layoutBase is the first allocatable address: address 0 stays unmapped
// to catch null dereferences.
const layoutBase = 64

// Place assigns a base address to a named symbol. A name is placed at
// most once (a program defines each data symbol once, which asm.Program
// checks before any load), and a symbol that does not fit in the memory
// is an error.
func (l *Layout) Place(name string, size int64) (int64, error) {
	if size < 0 {
		return 0, fmt.Errorf("mem: negative size for %q", name)
	}
	if _, ok := l.symbols[name]; ok {
		return 0, fmt.Errorf("mem: symbol %q placed twice", name)
	}
	addr := (l.next + 7) &^ 7
	// addr > size-n rather than addr+n > size: the latter overflows int64
	// for huge sizes and would wrap to a false pass.
	if size > l.size || addr > l.size-size {
		return 0, fmt.Errorf("mem: out of memory allocating %q (%d bytes)", name, size)
	}
	l.symbols[name] = addr
	l.next = addr + size
	return addr, nil
}

// Addr resolves a placed symbol to its base address.
func (l *Layout) Addr(name string) (int64, bool) {
	a, ok := l.symbols[name]
	return a, ok
}

// Check reports an n-byte access at addr that falls outside the memory,
// with the error Memory's accessors return for it.
func (l *Layout) Check(addr, n int64) error { return checkRange(addr, n, l.size) }

// CheckStream reports the first element of an n-element, stride-byte
// stream of words from base that falls outside the memory — the error a
// vector load or store walking the stream element by element would hit
// first — or nil when the whole stream is in range. The common in-range
// case is decided arithmetically, without visiting the elements.
func (l *Layout) CheckStream(base, stride int64, n int) error {
	if n <= 0 {
		return nil
	}
	hi := l.size - 8
	if base >= 0 && base <= hi {
		k := int64(n - 1)
		switch {
		case stride == 0:
			return nil
		case stride > 0 && k <= (hi-base)/stride:
			return nil
		case stride < 0 && k <= base/-stride:
			return nil
		}
	}
	for k := 0; k < n; k++ {
		if err := l.Check(base+int64(k)*stride, 8); err != nil {
			return err
		}
	}
	return nil
}

func checkRange(addr, n, size int64) error {
	// addr > size-n rather than addr+n > size: avoids int64 overflow near
	// the top of the address space.
	if addr < 0 || n < 0 || n > size || addr > size-n {
		return fmt.Errorf("mem: access at %d (+%d) out of range [0,%d)", addr, n, size)
	}
	return nil
}
