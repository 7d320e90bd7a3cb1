package mem

import "macs/internal/isa"

// BankModel prices vector memory streams against the interleaved banks
// and the refresh schedule: given a stream's first access cycle, base
// address, stride and length, how many cycles beyond one access per
// cycle does it lose?
//
// A bank is busy for cfg.BankCycle cycles after each access. During a
// refresh window (every RefreshPeriod cycles, RefreshLen long) the whole
// memory is unavailable.
//
// A BankModel is not safe for concurrent use; the element walk reuses a
// scratch buffer.
type BankModel struct {
	cfg     Config
	scratch []int64 // idle-bank state for the element walk
}

// NewBankModel creates a bank timing model.
func NewBankModel(cfg Config) *BankModel {
	return &BankModel{cfg: cfg}
}

// StreamStallParts returns the extra cycles (beyond one per element) that
// a vector memory stream of n elements with the given byte stride
// suffers when its first element accesses memory at cycle start, split by
// mechanism: cycles spent waiting for a busy bank versus cycles spent
// waiting out refresh windows. Every stream sees the banks idle since
// cycle 0, so the answer is a pure function of the configuration and the
// four stream parameters.
//
// A word-aligned stream whose stride never revisits a bank within its
// busy time waits only on refresh, which a closed form prices window by
// window; every other stream is priced by the element walk. The two
// agree wherever the closed form applies (see the differential tests).
func (b *BankModel) StreamStallParts(start, base, strideBytes int64, n int) (bankStall, refreshStall int64) {
	if n <= 0 {
		return 0, 0
	}
	cfg := b.cfg
	// Idle banks mean "free since cycle 0", so a stream starting at a
	// negative cycle sees every bank busy until 0, and an unaligned base
	// or stride breaks the one-bank-per-word pattern: both take the walk.
	// The closed form also needs a well-formed refresh schedule (windows
	// shorter than the period) so one element proceeds per free cycle.
	aligned := start >= 0 && base%isa.WordBytes == 0 && strideBytes%isa.WordBytes == 0
	refreshOn := cfg.RefreshEnabled && cfg.RefreshPeriod > 0
	if aligned && cfg.UnitStrideConflictFree(strideBytes) &&
		(!refreshOn || cfg.RefreshLen < cfg.RefreshPeriod) {
		return 0, refreshOnlyStall(cfg, start, n)
	}
	if b.scratch == nil {
		b.scratch = make([]int64, cfg.Banks)
	} else {
		clear(b.scratch)
	}
	return streamWalk(cfg, b.scratch, start, base, strideBytes, n)
}

// streamWalk is the element-level walk: it advances an n-element access
// stream (first element wanting cycle start, each later element one
// cycle after its predecessor completes) against the per-bank busy state
// in busy, which it mutates, and returns the stall split into bank-busy
// and refresh waits.
func streamWalk(cfg Config, busy []int64, start, base, strideBytes int64, n int) (bankStall, refreshStall int64) {
	t := start
	addr := base
	for i := 0; i < n; i++ {
		// First wait for the bank to go idle, then for the next
		// refresh-free cycle.
		bank := cfg.BankOf(addr)
		bt := t
		if busy[bank] > bt {
			bt = busy[bank]
		}
		at := cfg.NextFree(bt)
		bankStall += bt - t
		refreshStall += at - bt
		busy[bank] = at + int64(cfg.BankCycle)
		t = at + 1 // next element wants to go the following cycle
		addr += strideBytes
	}
	return bankStall, refreshStall
}

// refreshOnlyStall is the closed form for streams that never wait on a
// busy bank: accesses proceed one per cycle except that an access landing
// inside a refresh window waits out its remainder. It walks refresh
// windows (O(n/RefreshPeriod)) rather than elements.
func refreshOnlyStall(cfg Config, start int64, n int) int64 {
	if !cfg.RefreshEnabled || cfg.RefreshPeriod <= 0 {
		return 0
	}
	period, length := int64(cfg.RefreshPeriod), int64(cfg.RefreshLen)
	t := start
	remaining := int64(n)
	var stall int64
	for remaining > 0 {
		off := modI64(t, period)
		if off < length {
			// One access waits out the window's remainder...
			stall += length - off
			t += length - off
			off = length
		}
		// ...then accesses stream one per cycle until the next window.
		free := period - off
		if free >= remaining {
			break
		}
		remaining -= free
		t += free
	}
	return stall
}

// modI64 is the non-negative remainder of v modulo m (m > 0).
func modI64(v, m int64) int64 {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}

// UnitStrideConflictFree reports whether a stream with the given byte
// stride can run at one access per cycle with no bank conflicts: the bank
// revisit interval must be at least the bank cycle time.
func (cfg Config) UnitStrideConflictFree(strideBytes int64) bool {
	if strideBytes == 0 {
		return false
	}
	words := strideBytes / isa.WordBytes
	if words == 0 {
		words = 1
	}
	if words < 0 {
		words = -words
	}
	g := gcd(words, int64(cfg.Banks))
	revisit := int64(cfg.Banks) / g
	return revisit >= int64(cfg.BankCycle)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
