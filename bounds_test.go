// Property tests for the bounds hierarchy.
//
//	TestBoundsMonotonicLFK         t_MA <= t_MAC <= t_MACS <= measured CPL
//	TestBoundsMonotonicRandom      same hierarchy over random stride/VL kernels
package macs_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"macs"
	"macs/internal/compiler"
	"macs/internal/lfk"
	"macs/internal/vm"
)

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
