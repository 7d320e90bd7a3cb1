// Golden and property tests for the analytical fast tier.
//
//	TestFastTierGoldenLFK          pins predicted cycles + attribution vs sim
//	TestBoundsMonotonicLFK         t_MA <= t_MAC <= t_MACS <= measured CPL
//	TestBoundsMonotonicRandom      same hierarchy over random stride/VL kernels
package macs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"macs"
	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/vm"
)

// fastTierGolden pins, per LFK, the cycle count the simulator measures
// and the fast tier predicts. Both tiers run one timing model, so the
// two must agree exactly; any drift in that model shows up here as a
// cycle-count diff.
var fastTierGolden = map[int]int64{
	1:  4573,
	2:  1550,
	3:  2459,
	4:  2667,
	6:  16977,
	7:  11350,
	8:  6531,
	9:  1291,
	10: 2210,
	12: 3293,
}

// TestFastTierGoldenLFK is the fast tier's accuracy gate: for all ten
// LFKs the analytical prediction must match the golden cycle count and a
// live primed simulation's CPL, and reproduce the simulator's stall
// attribution lane by lane and bucket by bucket.
func TestFastTierGoldenLFK(t *testing.T) {
	cfg := vm.DefaultConfig()
	an := macs.NewAnalyzer(macs.DefaultVMConfig())
	for _, k := range lfk.All() {
		want, ok := fastTierGolden[k.ID]
		if !ok {
			t.Fatalf("lfk%d: no golden entry", k.ID)
		}
		c, err := lfk.Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		st, _, err := c.Run(cfg)
		if err != nil {
			t.Fatalf("lfk%d sim: %v", k.ID, err)
		}
		measuredCPL := float64(st.Cycles) / float64(k.Elements)
		fast, err := an.PredictSource(k.Source, int64(k.Elements), k.DataInts())
		if err != nil {
			t.Fatalf("lfk%d predict: %v", k.ID, err)
		}
		p := fast.Prediction

		if st.Cycles != want {
			t.Errorf("lfk%d: simulator measured %d cycles, golden %d", k.ID, st.Cycles, want)
		}
		if p.Cycles != want {
			t.Errorf("lfk%d: fast tier predicted %d cycles, golden %d", k.ID, p.Cycles, want)
		}
		if p.CPL != measuredCPL {
			t.Errorf("lfk%d: predicted CPL %.4f, measured %.4f", k.ID, p.CPL, measuredCPL)
		}
		if !reflect.DeepEqual(p.Attr, st.Attr) {
			t.Errorf("lfk%d: attribution diverges from simulator:\nfast %+v\nsim  %+v", k.ID, p.Attr, st.Attr)
		}
		if err := p.Attr.Conserved(p.Cycles); err != nil {
			t.Errorf("lfk%d: %v", k.ID, err)
		}
	}
}

// checkHierarchy asserts the MACS hierarchy in CPL terms: looser models
// can never charge more time than tighter ones, and no model may charge
// more than the machine measures. (In the paper's MFLOPS terms this is
// MA >= MAC >= MACS >= measured.) slack absorbs loop wrap-around: the
// simulator's last iteration can retire up to one chime boundary early
// relative to the steady-state partition.
func checkHierarchy(t *testing.T, label string, a macs.Analysis, measuredCPL, slack float64) {
	t.Helper()
	if a.TMA > a.TMAC {
		t.Errorf("%s: t_MA %.4f > t_MAC %.4f", label, a.TMA, a.TMAC)
	}
	if a.TMAC > a.MACS.CPL {
		t.Errorf("%s: t_MAC %.4f > t_MACS %.4f", label, a.TMAC, a.MACS.CPL)
	}
	if a.MACS.CPL > measuredCPL+slack {
		t.Errorf("%s: t_MACS %.4f exceeds measured CPL %.4f (+%.1f slack) — bound not a bound",
			label, a.MACS.CPL, measuredCPL, slack)
	}
}

// TestBoundsMonotonicLFK checks the hierarchy on the ten calibration
// kernels, where the measured CPL is steady-state and needs no slack.
func TestBoundsMonotonicLFK(t *testing.T) {
	cfg := vm.DefaultConfig()
	for _, k := range lfk.All() {
		a, err := macs.BoundSource(k.Source)
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		c, err := lfk.Compile(k, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("lfk%d: %v", k.ID, err)
		}
		st, _, err := c.Run(cfg)
		if err != nil {
			t.Fatalf("lfk%d sim: %v", k.ID, err)
		}
		measuredCPL := float64(st.Cycles) / float64(k.Elements)
		checkHierarchy(t, fmt.Sprintf("lfk%d", k.ID), a, measuredCPL, 0)
	}
}

// randomStrideKernel emits a small vectorizable kernel with a randomized
// DO stride (memory stride follows it) and a randomized trip count whose
// residue exercises different final vector lengths. Literal loop bounds
// keep it self-contained — no priming. Every statement carries a unique
// literal constant so the compiler cannot common-subexpression away
// work the source-level MA model charges (CSE would legitimately put
// t_MAC below t_MA and is not the property under test).
func randomStrideKernel(r *rand.Rand) (string, int64) {
	step := 1 + r.Intn(4)          // stride 1..4
	n := 64 + r.Intn(900)          // trip-count span: varies final strip VL
	iters := int64((n-1)/step) + 1 // DO K = 1, n, step
	var b strings.Builder
	b.WriteString("PROGRAM RANDK\n")
	b.WriteString("REAL A(4096), B(4096), C(4096), D(4096)\n")
	b.WriteString("INTEGER K\n")
	fmt.Fprintf(&b, "DO K = 1, %d, %d\n", n, step)
	stmts := 1 + r.Intn(3)
	for s := 0; s < stmts; s++ {
		dst := []string{"C", "D"}[r.Intn(2)]
		uniq := s + 3
		switch r.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "  %s(K) = A(K) + B(K) * %d.0\n", dst, uniq)
		case 1:
			fmt.Fprintf(&b, "  %s(K) = A(K) * %d.5 + B(K) * %d.25\n", dst, uniq, uniq)
		default:
			fmt.Fprintf(&b, "  %s(K) = A(K) * %d.75 + B(K)\n", dst, uniq)
		}
	}
	b.WriteString("ENDDO\nEND\n")
	return b.String(), iters
}

// TestBoundsMonotonicRandom fuzzes the hierarchy over random stride/VL
// configurations (seeded, like internal/vm's property tests). Short
// strided loops see wrap-around effects, so the measured side gets one
// CPL of slack — the same allowance internal/vm's bound property uses.
func TestBoundsMonotonicRandom(t *testing.T) {
	cfg := macs.DefaultVMConfig()
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		src, iters := randomStrideKernel(r)
		res, err := macs.AnalyzeSourceVM(src, iters, cfg, nil)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		checkHierarchy(t, fmt.Sprintf("trial %d", trial), res.Analysis, res.MeasuredCPL, 1)
	}
}

// TestFastTierInterval: a kernel with a bounded data-dependent branch
// (a float compare whose two outcomes reconverge) is refused by the
// single-path replay but served by the path enumerator, and the
// enumerated [CyclesLo, CyclesHi] envelope contains the simulator's
// measurement. Second call pins memoization.
func TestFastTierInterval(t *testing.T) {
	const src = `
PROGRAM DATADEP
REAL X(128), S
INTEGER N, K
DO K = 1, N
  X(K) = X(K) + S
ENDDO
IF (S .LT. 1.0) GOTO 10
10 CONTINUE
END
`
	an := macs.NewAnalyzer(macs.DefaultVMConfig())
	ints := map[string]int64{"d_N": 16}
	if _, err := an.PredictSource(src, 16, ints); !errors.Is(err, macs.ErrDataDependent) {
		t.Fatalf("single-path replay error = %v, want ErrDataDependent", err)
	}
	fast, err := an.PredictSourceInterval(src, 16, ints)
	if err != nil {
		t.Fatalf("interval predict: %v", err)
	}
	p := fast.Prediction
	if !p.Interval {
		t.Fatalf("prediction not marked interval: %+v", p)
	}
	if p.Paths < 2 {
		t.Errorf("paths = %d, want >= 2 (one per branch outcome)", p.Paths)
	}
	if p.CyclesLo <= 0 || p.CyclesLo > p.CyclesHi || p.Cycles != p.CyclesHi {
		t.Fatalf("implausible envelope: lo=%d hi=%d point=%d", p.CyclesLo, p.CyclesHi, p.Cycles)
	}
	if p.CPLLo <= 0 || p.CPLLo > p.CPLHi {
		t.Fatalf("implausible CPL envelope: [%g, %g]", p.CPLLo, p.CPLHi)
	}
	if !strings.Contains(fast.Report(), "interval t_p") {
		t.Errorf("report does not state the interval:\n%s", fast.Report())
	}

	res, err := an.AnalyzeSource(src, 16, func(c *macs.CPU) error {
		base, ok := c.Memory().SymbolAddr("d_N")
		if !ok {
			return fmt.Errorf("no symbol d_N")
		}
		return c.Memory().WriteI64(base, 16)
	})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Stats.Cycles < p.CyclesLo || res.Stats.Cycles > p.CyclesHi {
		t.Errorf("simulated %d cycles outside enumerated [%d, %d]",
			res.Stats.Cycles, p.CyclesLo, p.CyclesHi)
	}

	again, err := an.PredictSourceInterval(src, 16, ints)
	if err != nil {
		t.Fatalf("second interval predict: %v", err)
	}
	if q := again.Prediction; q.CyclesLo != p.CyclesLo || q.CyclesHi != p.CyclesHi || q.Paths != p.Paths {
		t.Errorf("memoized interval diverges: first [%d,%d]/%d, second [%d,%d]/%d",
			p.CyclesLo, p.CyclesHi, p.Paths, q.CyclesLo, q.CyclesHi, q.Paths)
	}
}

// TestFastTierOutOfRangeDifferential: the fast tier fails exactly when
// the simulator does, with the same memory error, on the point and the
// interval path alike — data that does not fit the memory, and a trip
// count that runs the vector streams off its end — and answers the
// simulator's cycle count when the same kernel stays in range.
func TestFastTierOutOfRangeDifferential(t *testing.T) {
	saxpy := func(elems int) string {
		return fmt.Sprintf("PROGRAM SAXPY\nREAL X(%d), Y(%d), A\nINTEGER N, K\nDO K = 1, N\n  Y(K) = Y(K) + A*X(K)\nENDDO\nEND\n", elems, elems)
	}
	cases := []struct {
		name  string
		src   string
		n     int64
		wantE string // the simulator's memory error; "" when it runs
	}{
		{"data-too-big", saxpy(3000000), 1000, `mem: out of memory allocating "d_X" (24000000 bytes)`},
		{"streams-off-the-end", saxpy(2048), 3000000, "mem: access at 16777216 (+8) out of range [0,16777216)"},
		{"in-range", saxpy(2048), 2048, ""},
	}
	an := macs.NewAnalyzer(macs.DefaultVMConfig())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ints := map[string]int64{"d_N": tc.n}
			exact, exactErr := an.AnalyzeSource(tc.src, tc.n, func(c *macs.CPU) error {
				base, ok := c.Memory().SymbolAddr("d_N")
				if !ok {
					return fmt.Errorf("no symbol d_N")
				}
				return c.Memory().WriteI64(base, tc.n)
			})
			fast, fastErr := an.PredictSource(tc.src, tc.n, ints)
			interval, intervalErr := an.PredictSourceInterval(tc.src, tc.n, ints)
			if tc.wantE == "" {
				if exactErr != nil || fastErr != nil || intervalErr != nil {
					t.Fatalf("errors: exact %v, fast %v, interval %v", exactErr, fastErr, intervalErr)
				}
				if fast.Prediction.Cycles != exact.Stats.Cycles || interval.Prediction.Cycles != exact.Stats.Cycles {
					t.Fatalf("predicted %d (interval %d) cycles, simulated %d",
						fast.Prediction.Cycles, interval.Prediction.Cycles, exact.Stats.Cycles)
				}
				return
			}
			for tier, err := range map[string]error{"exact": exactErr, "fast": fastErr, "interval": intervalErr} {
				if err == nil || !strings.HasSuffix(err.Error(), tc.wantE) {
					t.Errorf("%s tier error = %v, want one ending in %q", tier, err, tc.wantE)
				}
				if errors.Is(err, macs.ErrDataDependent) {
					t.Errorf("%s tier refused as data-dependent; auto would fall back instead of failing", tier)
				}
			}
		})
	}
}
