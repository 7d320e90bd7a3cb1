package mem

import (
	"math"
	"testing"
	"testing/quick"

	"macs/internal/isa"
)

func TestAllocAndSymbols(t *testing.T) {
	m := New(1 << 16)
	a1, err := m.Alloc("x", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if a1%8 != 0 || a1 == 0 {
		t.Errorf("Alloc returned unaligned or null address %d", a1)
	}
	a2, err := m.Alloc("y", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1+1024 {
		t.Errorf("y (%d) overlaps x (%d..%d)", a2, a1, a1+1024)
	}
	// A name is placed once: a second Alloc of it is refused, and the
	// first placement stands.
	if a3, err := m.Alloc("x", 1024); err == nil {
		t.Errorf("re-Alloc(x) = %d, want the refusal", a3)
	}
	if got, ok := m.SymbolAddr("x"); !ok || got != a1 {
		t.Errorf("SymbolAddr(x) = %d,%v", got, ok)
	}
	if _, ok := m.SymbolAddr("zz"); ok {
		t.Error("SymbolAddr(zz) should fail")
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	m := New(256)
	if _, err := m.Alloc("big", 1024); err == nil {
		t.Error("Alloc beyond memory size should fail")
	}
	if _, err := m.Alloc("neg", -1); err == nil {
		t.Error("negative Alloc should fail")
	}
}

// TestAllocSizeMismatch: a second placement of a name is refused with one
// text whatever its size, and leaves the memory's next placement where
// the first one left it.
func TestAllocSizeMismatch(t *testing.T) {
	m := New(1 << 16)
	if _, err := m.Alloc("x", 1024); err != nil {
		t.Fatal(err)
	}
	const want = `mem: symbol "x" placed twice`
	for _, size := range []int64{2048, 1024, 8} {
		if _, err := m.Alloc("x", size); err == nil || err.Error() != want {
			t.Errorf("re-Alloc(x, %d): error %v, want %q", size, err, want)
		}
	}
	if _, err := m.Alloc("x", -1); err == nil {
		t.Error("re-Alloc with negative size should fail")
	}
	x, _ := m.SymbolAddr("x")
	if y, err := m.Alloc("y", 8); err != nil || y != x+1024 {
		t.Errorf("Alloc(y) = %d,%v, want %d,nil right after x", y, err, x+1024)
	}
}

func TestAllocOverflowGuard(t *testing.T) {
	m := New(1 << 12)
	// A size near MaxInt64 must not wrap addr+size past the bound check.
	if _, err := m.Alloc("huge", math.MaxInt64-32); err == nil {
		t.Error("near-MaxInt64 Alloc should fail, not overflow")
	}
}

func TestCheckOverflowGuard(t *testing.T) {
	m := New(1 << 12)
	// addr near MaxInt64 plus the 8-byte access width must not wrap.
	if _, err := m.ReadF64(math.MaxInt64 - 4); err == nil {
		t.Error("near-MaxInt64 read should fail, not overflow")
	}
	if err := m.WriteF64(math.MaxInt64-4, 1); err == nil {
		t.Error("near-MaxInt64 write should fail, not overflow")
	}
}

func TestRefreshNegativeCycles(t *testing.T) {
	cfg := DefaultConfig()
	// Negative cycles follow the same periodic schedule: -400 and -396 are
	// in the window that spans [-400, -392); -390 is not.
	if !cfg.InRefresh(-400) || !cfg.InRefresh(-396) {
		t.Error("cycles -400 and -396 are inside a refresh window")
	}
	if cfg.InRefresh(-390) {
		t.Error("cycle -390 is outside refresh")
	}
	if got := cfg.NextFree(-396); got != -392 {
		t.Errorf("NextFree(-396) = %d, want -392", got)
	}
	if got := cfg.NextFree(-390); got != -390 {
		t.Errorf("NextFree(-390) = %d, want -390", got)
	}
	// NextFree never goes backwards.
	for _, c := range []int64{-801, -400, -399, -8, -1, 0, 7, 8} {
		if got := cfg.NextFree(c); got < c {
			t.Errorf("NextFree(%d) = %d went backwards", c, got)
		}
	}
}

func TestStreamStallPartsSumToStall(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBankModel(cfg)
	cases := []struct {
		start, base, stride int64
		n                   int
	}{
		{0, 0, 8, 128},
		{390, 0, 32 * 8, 64}, // same-bank stream crossing a refresh
		{0, 64, 8 * 8, 128},  // 4-cycle bank revisit
		{1234, 8, 40, 200},   // odd stride
		{0, 0, 8, 0},         // empty stream
	}
	for _, tt := range cases {
		bank, refresh := b.StreamStallParts(tt.start, tt.base, tt.stride, tt.n)
		if bank < 0 || refresh < 0 {
			t.Errorf("StreamStallParts(%+v) negative parts: %d, %d", tt, bank, refresh)
		}
		wb, wr := walkOnIdleBanks(cfg, tt.start, tt.base, tt.stride, tt.n)
		if sum, want := bank+refresh, wb+wr; sum != want {
			t.Errorf("StreamStallParts(%+v) sum = %d, want the walk's %d", tt, sum, want)
		}
	}
	// With refresh on and a same-bank stride the refresh component is
	// nonzero when the stream crosses a window.
	_, refresh := b.StreamStallParts(390, 0, 32*8, 64)
	if refresh <= 0 {
		t.Error("stream crossing refresh window should attribute refresh stall")
	}
	cfgOff := cfg
	cfgOff.RefreshEnabled = false
	bOff := NewBankModel(cfgOff)
	if _, r := bOff.StreamStallParts(390, 0, 32*8, 64); r != 0 {
		t.Errorf("refresh disabled should attribute 0 refresh stall, got %d", r)
	}
}

func TestReadWriteF64(t *testing.T) {
	m := New(4096)
	addr, _ := m.Alloc("a", 64)
	if err := m.WriteF64(addr+8, 3.25); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadF64(addr + 8)
	if err != nil || v != 3.25 {
		t.Fatalf("ReadF64 = %v,%v, want 3.25", v, err)
	}
	if _, err := m.ReadF64(int64(m.Size())); err == nil {
		t.Error("out-of-range read should fail")
	}
	if err := m.WriteF64(-8, 1); err == nil {
		t.Error("negative-address write should fail")
	}
}

func TestReadWriteI64(t *testing.T) {
	m := New(4096)
	addr, _ := m.Alloc("a", 64)
	if err := m.WriteI64(addr, -42); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadI64(addr)
	if err != nil || v != -42 {
		t.Fatalf("ReadI64 = %v,%v, want -42", v, err)
	}
}

// TestUnwrittenMemoryReadsZero: memory never written reads 0 everywhere,
// including the pages beside a written one.
func TestUnwrittenMemoryReadsZero(t *testing.T) {
	m := New(16 << 20)
	if err := m.WriteI64(40000, -1); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int64{0, 64, 4088, 4092, 39992, 40008, 1 << 20, m.Size() - 8} {
		if v, err := m.ReadI64(addr); err != nil || v != 0 {
			t.Errorf("ReadI64(%d) = %d, %v; want 0, nil", addr, v, err)
		}
		if v, err := m.ReadF64(addr); err != nil || v != 0 {
			t.Errorf("ReadF64(%d) = %v, %v; want 0, nil", addr, v, err)
		}
	}
}

// TestUnalignedWriteAcrossPage: an 8-byte access straddling a page
// boundary round-trips, whichever of its two pages exist already.
func TestUnalignedWriteAcrossPage(t *testing.T) {
	m := New(1 << 16)
	page := int64(len(page{}))
	for _, addr := range []int64{page - 3, 3*page - 1, 2*page - 7} {
		if err := m.WriteI64(addr, 0x0102030405060708); err != nil {
			t.Fatal(err)
		}
		if v, err := m.ReadI64(addr); err != nil || v != 0x0102030405060708 {
			t.Errorf("ReadI64(%d) = %#x, %v after write", addr, v, err)
		}
		if err := m.WriteF64(addr, -2.75); err != nil {
			t.Fatal(err)
		}
		if v, err := m.ReadF64(addr); err != nil || v != -2.75 {
			t.Errorf("ReadF64(%d) = %v, %v after write", addr, v, err)
		}
	}
	// The neighbours of a straddling word are untouched.
	if err := m.WriteI64(5*page-4, -1); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int64{5*page - 12, 5*page + 4} {
		if v, _ := m.ReadI64(addr); v != 0 {
			t.Errorf("ReadI64(%d) = %#x, want 0 beside a straddling write", addr, v)
		}
	}
	if v, _ := m.ReadI64(5*page - 8); v != -1<<32 {
		t.Errorf("ReadI64 over the straddling word's low half = %#x, want %#x", v, int64(-1<<32))
	}
}

// TestRangeBoundIsMemSize: the last whole word is addressable, and an
// access past the end or below zero fails with the range error text.
func TestRangeBoundIsMemSize(t *testing.T) {
	const size = 16 << 20
	m := New(size)
	if err := m.WriteF64(size-8, 1.5); err != nil {
		t.Fatalf("write at MemSize-8: %v", err)
	}
	if v, err := m.ReadF64(size - 8); err != nil || v != 1.5 {
		t.Fatalf("ReadF64(MemSize-8) = %v, %v", v, err)
	}
	for _, tt := range []struct {
		addr int64
		want string
	}{
		{size - 7, "mem: access at 16777209 (+8) out of range [0,16777216)"},
		{size, "mem: access at 16777216 (+8) out of range [0,16777216)"},
		{-8, "mem: access at -8 (+8) out of range [0,16777216)"},
		{-1, "mem: access at -1 (+8) out of range [0,16777216)"},
	} {
		_, rf := m.ReadF64(tt.addr)
		wf := m.WriteF64(tt.addr, 1)
		_, ri := m.ReadI64(tt.addr)
		wi := m.WriteI64(tt.addr, 1)
		for _, err := range []error{rf, wf, ri, wi} {
			if err == nil || err.Error() != tt.want {
				t.Errorf("access at %d: error %v, want %q", tt.addr, err, tt.want)
			}
		}
	}
}

func TestQuickF64RoundTrip(t *testing.T) {
	m := New(1 << 12)
	addr, _ := m.Alloc("a", 8)
	f := func(v float64) bool {
		if err := m.WriteF64(addr, v); err != nil {
			return false
		}
		got, err := m.ReadF64(addr)
		return err == nil && (got == v || (got != got && v != v)) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankInterleaving(t *testing.T) {
	cfg := DefaultConfig()
	// Consecutive words map to consecutive banks.
	for w := 0; w < 64; w++ {
		want := w % cfg.Banks
		if got := cfg.BankOf(int64(w * 8)); got != want {
			t.Errorf("BankOf(word %d) = %d, want %d", w, got, want)
		}
	}
	// Bytes within a word map to the same bank.
	if cfg.BankOf(8) != cfg.BankOf(15) {
		t.Error("bytes of one word must share a bank")
	}
}

func TestRefreshWindows(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.InRefresh(0) || !cfg.InRefresh(7) {
		t.Error("cycles 0..7 are in the first refresh window")
	}
	if cfg.InRefresh(8) || cfg.InRefresh(399) {
		t.Error("cycles 8..399 are outside refresh")
	}
	if !cfg.InRefresh(400) {
		t.Error("cycle 400 starts the next refresh")
	}
	if got := cfg.NextFree(402); got != 408 {
		t.Errorf("NextFree(402) = %d, want 408", got)
	}
	if got := cfg.NextFree(100); got != 100 {
		t.Errorf("NextFree(100) = %d, want 100", got)
	}
	cfg.RefreshEnabled = false
	if cfg.InRefresh(0) {
		t.Error("refresh disabled should never be in refresh")
	}
	if got := cfg.NextFree(3); got != 3 {
		t.Errorf("NextFree with refresh off = %d, want 3", got)
	}
}

func TestBankModelAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	b := NewBankModel(cfg)
	// A stream's first access proceeds at once; a second access to the
	// same bank, wanted one cycle later, waits out the bank cycle (10+8).
	sameBank := int64(cfg.Banks * 8)
	if bank, refresh := b.StreamStallParts(10, 0, sameBank, 2); bank != 7 || refresh != 0 {
		t.Errorf("same-bank pair stalls (%d,%d), want (7,0): second access at 18", bank, refresh)
	}
	// A different bank is free.
	if bank, refresh := b.StreamStallParts(10, 0, 8, 2); bank != 0 || refresh != 0 {
		t.Errorf("other-bank pair stalls (%d,%d), want (0,0)", bank, refresh)
	}
	// Every stream starts on idle banks.
	if bank, _ := b.StreamStallParts(0, 0, sameBank, 1); bank != 0 {
		t.Errorf("lone access stalls %d, want 0", bank)
	}
}

func TestBankModelRefreshStall(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBankModel(cfg)
	// An access landing inside the refresh window waits for its end (408),
	// whether the closed form (unit stride) or the walk (same-bank stride)
	// prices it.
	for _, stride := range []int64{8, int64(cfg.Banks * 8)} {
		if bank, refresh := b.StreamStallParts(402, 0, stride, 1); bank != 0 || refresh != 6 {
			t.Errorf("stride %d: access during refresh stalls (%d,%d), want (0,6)", stride, bank, refresh)
		}
	}
}

// streamStall is StreamStallParts summed over both mechanisms.
func streamStall(b *BankModel, start, base, stride int64, n int) int64 {
	bank, refresh := b.StreamStallParts(start, base, stride, n)
	return bank + refresh
}

func TestStreamStallUnitStride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	b := NewBankModel(cfg)
	// Unit stride never revisits a bank within its busy time: no stalls.
	if got := streamStall(b, 0, 0, 8, 128); got != 0 {
		t.Errorf("unit-stride stall = %d, want 0", got)
	}
	// Stride 2 and 4 words are still conflict-free on 32 banks.
	if got := streamStall(b, 0, 0, 16, 128); got != 0 {
		t.Errorf("stride-2 stall = %d, want 0", got)
	}
	if got := streamStall(b, 0, 0, 32, 128); got != 0 {
		t.Errorf("stride-4 stall = %d, want 0", got)
	}
}

func TestStreamStallBankConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	b := NewBankModel(cfg)
	// Stride 32 words hits the same bank every access: each access after
	// the first stalls BankCycle-1 cycles.
	n := 16
	got := streamStall(b, 0, 0, 32*8, n)
	want := int64((n - 1) * (cfg.BankCycle - 1))
	if got != want {
		t.Errorf("same-bank stream stall = %d, want %d", got, want)
	}
	// Stride 8 words revisits each bank every 4 cycles: 4 stall cycles each.
	got = streamStall(b, 0, 0, 8*8, 8)
	if got <= 0 {
		t.Errorf("stride-8-words stream should stall, got %d", got)
	}
}

func TestUnitStrideConflictFree(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		strideBytes int64
		want        bool
	}{
		{8, true},    // unit
		{16, true},   // 2 words
		{32, true},   // 4 words: revisit every 8 >= 8
		{40, true},   // 5 words, odd: full cycle
		{64, false},  // 8 words: revisit every 4 < 8
		{256, false}, // 32 words: same bank
		{0, false},
	}
	for _, tt := range tests {
		if got := cfg.UnitStrideConflictFree(tt.strideBytes); got != tt.want {
			t.Errorf("UnitStrideConflictFree(%d) = %v, want %v", tt.strideBytes, got, tt.want)
		}
	}
}

func TestStreamStallDoesNotDisturbState(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBankModel(cfg)
	want := streamStall(b, 0, 0, 32*8, 64)
	// Streams priced in between leave no bank busy for the next one.
	streamStall(b, 20, 0, 32*8, 128)
	streamStall(b, 3, 8, 8*8, 96)
	if got := streamStall(b, 0, 0, 32*8, 64); got != want {
		t.Errorf("repeated query stalls %d, first answer %d", got, want)
	}
	if got := streamStall(NewBankModel(cfg), 0, 0, 32*8, 64); got != want {
		t.Errorf("fresh model stalls %d, reused model %d", got, want)
	}
}

func TestSimulateContentionSinglePort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	stats := SimulateContention(cfg, []Stream{{Base: 0, StrideBytes: 8, IssueEvery: 1}}, 1000)
	if stats[0].Accesses != 1000 {
		t.Fatalf("accesses = %d, want 1000", stats[0].Accesses)
	}
	if stats[0].CyclesPerAccess > 1.01 {
		t.Errorf("single unit-stride stream cycles/access = %v, want ~1.0", stats[0].CyclesPerAccess)
	}
}

func TestSimulateContentionLockstep(t *testing.T) {
	// Four identical phase-shifted streams (same executable) fall into
	// lockstep: degradation stays mild (paper: 5-10%).
	cfg := DefaultConfig()
	slow := ContentionSlowdown(cfg, 4, false, 4000)
	if slow < 1.0 || slow > 1.25 {
		t.Errorf("lockstep slowdown = %v, want within [1.0, 1.25]", slow)
	}
}

func TestSimulateContentionDifferentPrograms(t *testing.T) {
	// Four different programs (jittered strips) contend harder: the paper
	// reports one access per 56-64 ns vs the 40 ns peak (1.4x-1.6x).
	cfg := DefaultConfig()
	slow := ContentionSlowdown(cfg, 4, true, 4000)
	if slow < 1.15 || slow > 1.8 {
		t.Errorf("different-program slowdown = %v, want within [1.15, 1.8]", slow)
	}
}

func TestContentionMoreStreamsIsSlower(t *testing.T) {
	cfg := DefaultConfig()
	s2 := ContentionSlowdown(cfg, 2, true, 2000)
	s4 := ContentionSlowdown(cfg, 4, true, 2000)
	if s4 < s2 {
		t.Errorf("4-stream slowdown (%v) should be >= 2-stream (%v)", s4, s2)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Banks != 32 || cfg.BankCycle != 8 || cfg.RefreshPeriod != 400 || cfg.RefreshLen != 8 {
		t.Errorf("DefaultConfig = %+v, want 32 banks, 8-cycle, 400/8 refresh", cfg)
	}
	if isa.RefreshFactor != 1.02 {
		t.Errorf("RefreshFactor = %v, want 1.02", isa.RefreshFactor)
	}
}

// TestStreamsMatchTheElementWalk: a stream read or write moves the same
// words as one ReadF64 or WriteF64 per element — across page
// boundaries, straddling words, pages never written, and negative and
// zero strides — and an out-of-range stream fails with the error the
// walk's first out-of-range element raises, without touching memory.
func TestStreamsMatchTheElementWalk(t *testing.T) {
	const size = 1 << 16
	pg := int64(len(page{}))
	for _, tt := range []struct {
		base, stride int64
		n            int
	}{
		{64, 8, 128},         // unit stride across a page boundary
		{pg - 20, 8, 9},      // every word straddles two pages
		{3 * pg, 40, 128},    // strided, several pages
		{9 * pg, -24, 100},   // negative stride
		{2*pg + 8, 0, 5},     // zero stride: the last write wins
		{size - 16, 8, 2},    // ends on the last whole word
		{size - 16, 8, 3},    // third element out of range
		{100, -8, 20},        // walks below zero
		{-8, 8, 4},           // starts below zero
		{size / 2, 4096, 40}, // runs past the end halfway
	} {
		src := make([]float64, tt.n)
		for k := range src {
			src[k] = float64(k) + 0.25
		}
		walk, stream := New(size), New(size)
		var wantErr error
		for k, v := range src {
			if err := walk.WriteF64(tt.base+int64(k)*tt.stride, v); err != nil {
				wantErr = err
				break
			}
		}
		err := stream.WriteStream(tt.base, tt.stride, src)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("WriteStream(%d, %d, %d): error %v, element walk %v", tt.base, tt.stride, tt.n, err, wantErr)
		}
		got := make([]float64, tt.n)
		rerr := stream.ReadStream(tt.base, tt.stride, got)
		if (rerr == nil) != (wantErr == nil) || (rerr != nil && rerr.Error() != wantErr.Error()) {
			t.Errorf("ReadStream(%d, %d, %d): error %v, element walk %v", tt.base, tt.stride, tt.n, rerr, wantErr)
		}
		if wantErr != nil {
			if len(stream.pages) != 0 {
				t.Errorf("WriteStream(%d, %d, %d) failed but wrote pages", tt.base, tt.stride, tt.n)
			}
			continue
		}
		for k := range got {
			w, _ := walk.ReadF64(tt.base + int64(k)*tt.stride)
			if got[k] != w {
				t.Errorf("stream (%d, %d) element %d = %v, element walk %v", tt.base, tt.stride, k, got[k], w)
			}
		}
		// A stream over pages never written reads zeros.
		fresh := make([]float64, tt.n)
		fresh[0] = 1
		if err := New(size).ReadStream(tt.base, tt.stride, fresh); err != nil || fresh[0] != 0 || fresh[len(fresh)-1] != 0 {
			t.Errorf("ReadStream on unwritten memory = %v, %v", fresh, err)
		}
	}
}
