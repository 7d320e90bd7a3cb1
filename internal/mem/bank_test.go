package mem

import (
	"math/rand"
	"testing"
)

// walkOnIdleBanks is the reference answer for a stream-stall query: the
// element walk over banks idle since cycle 0.
func walkOnIdleBanks(cfg Config, start, base, stride int64, n int) (bank, refresh int64) {
	return streamWalk(cfg, make([]int64, cfg.Banks), start, base, stride, n)
}

// closedFormApplies reports whether StreamStallParts answers a query by
// the refresh-only closed form rather than the element walk.
func closedFormApplies(cfg Config, start, base, stride int64) bool {
	refreshOn := cfg.RefreshEnabled && cfg.RefreshPeriod > 0
	return start >= 0 && base%8 == 0 && stride%8 == 0 &&
		cfg.UnitStrideConflictFree(stride) &&
		(!refreshOn || cfg.RefreshLen < cfg.RefreshPeriod)
}

// stallGridConfigs are the memory configurations of the differential
// grid: the C-240, refresh off, odd geometries, a degenerate schedule
// whose refresh fills the period, and the explore universe's extreme bank
// counts (8, 64) and refresh periods (200, 800).
var stallGridConfigs = []Config{
	DefaultConfig(),
	{Banks: 32, BankCycle: 8, RefreshPeriod: 400, RefreshLen: 8, RefreshEnabled: false},
	{Banks: 16, BankCycle: 4, RefreshPeriod: 100, RefreshLen: 3, RefreshEnabled: true},
	{Banks: 8, BankCycle: 11, RefreshPeriod: 37, RefreshLen: 5, RefreshEnabled: true},
	{Banks: 32, BankCycle: 8, RefreshPeriod: 8, RefreshLen: 8, RefreshEnabled: true},
	{Banks: 8, BankCycle: 8, RefreshPeriod: 200, RefreshLen: 8, RefreshEnabled: true},
	{Banks: 8, BankCycle: 8, RefreshPeriod: 800, RefreshLen: 8, RefreshEnabled: true},
	{Banks: 64, BankCycle: 8, RefreshPeriod: 200, RefreshLen: 8, RefreshEnabled: true},
	{Banks: 64, BankCycle: 8, RefreshPeriod: 800, RefreshLen: 8, RefreshEnabled: true},
}

var (
	stallGridStrides = []int64{0, 8, -8, 16, 64, 96, 256, 264, 2048, 4, 12, -20, 1}
	stallGridStarts  = []int64{0, 1, 7, 8, 199, 200, 399, 400, 401, 799, 800, 1234567, -5, -400}
	stallGridBases   = []int64{0, 8, 64, 120, 2048, 4, 9, -16}
	stallGridLengths = []int{0, 1, 2, 31, 32, 64, 127, 128}
)

// TestStreamStallPartsMatchesWalk is the differential gate of the
// stream-stall pricer: on a grid of memory configurations, strides,
// phases, bases and lengths — unaligned and negative ones included —
// StreamStallParts must answer bit-identically to the element walk on
// idle banks, on a fresh model and again on one that has priced other
// streams. The grid must reach both the closed form (conflict-free
// strides) and the walk (conflicting strides).
func TestStreamStallPartsMatchesWalk(t *testing.T) {
	var closed, conflicting int
	for ci, cfg := range stallGridConfigs {
		m := NewBankModel(cfg)
		for _, stride := range stallGridStrides {
			for _, start := range stallGridStarts {
				for _, base := range stallGridBases {
					for _, n := range stallGridLengths {
						if closedFormApplies(cfg, start, base, stride) {
							closed++
						} else if !cfg.UnitStrideConflictFree(stride) {
							conflicting++
						}
						wb, wr := walkOnIdleBanks(cfg, start, base, stride, n)
						for pass := 0; pass < 2; pass++ {
							gb, gr := m.StreamStallParts(start, base, stride, n)
							if gb != wb || gr != wr {
								t.Fatalf("cfg %d stride=%d start=%d base=%d n=%d pass=%d: got (%d,%d), walk (%d,%d)",
									ci, stride, start, base, n, pass, gb, gr, wb, wr)
							}
						}
					}
				}
			}
		}
	}
	if closed == 0 || conflicting == 0 {
		t.Fatalf("grid reached %d closed-form and %d conflicting queries; want both", closed, conflicting)
	}
}

// TestStreamStallPartsRandomized checks the same property on random
// queries, biased toward word-aligned streams and toward bank-conflicting
// strides.
func TestStreamStallPartsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	m := NewBankModel(cfg)
	var closed, walked int
	for i := 0; i < 5000; i++ {
		start := rng.Int63n(10_000) - 500
		base := rng.Int63n(1 << 20)
		stride := rng.Int63n(64) - 16
		if i%4 != 0 { // mostly aligned
			base &^= 7
			stride *= 8
		}
		n := rng.Intn(130)
		if i%2 == 1 {
			start = int64(rng.Intn(3))
			base = int64(rng.Intn(3) * 8)
			stride = int64((rng.Intn(3) + 1) * 64) // bank-conflicting strides
			n = 96 + rng.Intn(2)
		}
		if closedFormApplies(cfg, start, base, stride) {
			closed++
		} else {
			walked++
		}
		wb, wr := walkOnIdleBanks(cfg, start, base, stride, n)
		gb, gr := m.StreamStallParts(start, base, stride, n)
		if gb != wb || gr != wr {
			t.Fatalf("start=%d base=%d stride=%d n=%d: got (%d,%d), walk (%d,%d)",
				start, base, stride, n, gb, gr, wb, wr)
		}
	}
	if closed == 0 || walked == 0 {
		t.Fatalf("sweep did not exercise both paths: closed form %d, walk %d", closed, walked)
	}
}

// FuzzStreamStall checks StreamStallParts against the element walk on
// idle banks for random memory geometries, refresh schedules and
// streams, seeded from the differential grid.
func FuzzStreamStall(f *testing.F) {
	for _, cfg := range stallGridConfigs {
		for _, stride := range stallGridStrides {
			f.Add(uint8(cfg.Banks), uint8(cfg.BankCycle), uint16(cfg.RefreshPeriod), uint16(cfg.RefreshLen),
				cfg.RefreshEnabled, int64(400), int64(64), stride, uint16(128))
		}
	}
	for _, start := range stallGridStarts {
		for _, base := range stallGridBases {
			f.Add(uint8(32), uint8(8), uint16(400), uint16(8), true, start, base, int64(256), uint16(64))
		}
	}
	f.Fuzz(func(t *testing.T, banks, bankCycle uint8, period, length uint16, refresh bool,
		start, base, stride int64, n uint16) {
		if banks == 0 || bankCycle == 0 {
			t.Skip("a memory needs at least one bank and a positive bank cycle")
		}
		cfg := Config{
			Banks:          int(banks),
			BankCycle:      int(bankCycle),
			RefreshPeriod:  int(period % 2048),
			RefreshLen:     int(length % 2048),
			RefreshEnabled: refresh,
		}
		// Keep cycle and address arithmetic far from int64 overflow.
		start %= 1 << 40
		base %= 1 << 40
		stride %= 1 << 20
		count := int(n % 1024)
		wb, wr := walkOnIdleBanks(cfg, start, base, stride, count)
		m := NewBankModel(cfg)
		for pass := 0; pass < 2; pass++ {
			gb, gr := m.StreamStallParts(start, base, stride, count)
			if gb != wb || gr != wr {
				t.Fatalf("%+v start=%d base=%d stride=%d n=%d pass=%d: got (%d,%d), walk (%d,%d)",
					cfg, start, base, stride, count, pass, gb, gr, wb, wr)
			}
		}
		if wb < 0 || wr < 0 {
			t.Fatalf("%+v start=%d base=%d stride=%d n=%d: negative stall (%d,%d)",
				cfg, start, base, stride, count, wb, wr)
		}
	})
}

// TestStreamSharedWalkEquivalence ties the two bank models together: a
// lone stream reserved in fresh shared banks stalls exactly as the
// private pricer says, since nothing else holds a bank.
func TestStreamSharedWalkEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	for _, stride := range []int64{8, 16, 256, 0, 24} {
		for _, start := range []int64{0, 5, 397} {
			got := NewSharedBanks(cfg).Stream(start, 64, stride, 128)
			bank, refresh := NewBankModel(cfg).StreamStallParts(start, 64, stride, 128)
			if want := bank + refresh; got != want {
				t.Fatalf("stride=%d start=%d: shared Stream=%d, StreamStallParts=%d", stride, start, got, want)
			}
		}
	}
}

func BenchmarkStreamStallParts(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride int64
	}{{"closed-form", 8}, {"walk", 256}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := NewBankModel(DefaultConfig())
			for i := 0; i < b.N; i++ {
				m.StreamStallParts(int64(i%400), 1024, bc.stride, 128)
			}
		})
	}
}
