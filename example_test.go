package macs_test

import (
	"fmt"
	"log"

	"macs"
)

// ExampleAnalyzeSource runs the full MACS pipeline on a first-difference
// kernel (LFK12's loop body) and prints the bounds hierarchy.
func ExampleAnalyzeSource() {
	const src = `
PROGRAM DIFF
REAL X(2001), Y(2001)
INTEGER N, K
DO K = 1, N
  X(K) = Y(K+1) - Y(K)
ENDDO
END
`
	in := macs.Inputs{Ints: map[string]int64{"N": 1000}}
	res, err := macs.AnalyzeSource(src, 1000, in.Prime())
	if err != nil {
		log.Fatal(err)
	}
	a := res.Analysis
	fmt.Printf("t_MA=%.0f t_MAC=%.0f CPL, chimes=%d\n", a.TMA, a.TMAC, len(a.MACS.Chimes))
	fmt.Printf("measured >= t_MACS: %v\n", res.MeasuredCPL >= a.MACS.CPL)
	// Output:
	// t_MA=2 t_MAC=3 CPL, chimes=3
	// measured >= t_MACS: true
}

// ExampleMABound shows the perfect-index-analysis workload of a loop.
func ExampleMABound() {
	w, err := macs.MABound(`
PROGRAM HYDRO
REAL X(2001), Y(2001), ZX(2048)
REAL Q, R, T
INTEGER N, K
DO K = 1, N
  X(K) = Q + Y(K)*(R*ZX(K+10) + T*ZX(K+11))
ENDDO
END
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(w)
	fmt.Printf("t_MA = %.1f CPL = %.1f CPF\n", w.Bound(), w.Bound()/float64(w.Flops()))
	// Output:
	// fa=2 fm=3 l=2 s=1
	// t_MA = 3.0 CPL = 0.6 CPF
}

// ExampleKernelByID analyzes one case-study kernel against the paper.
func ExampleKernelByID() {
	k, err := macs.KernelByID(1)
	if err != nil {
		log.Fatal(err)
	}
	r, err := macs.RunKernel(k, macs.DefaultExperimentConfig())
	if err != nil {
		log.Fatal(err)
	}
	tma, tmac, tmacs, _ := r.CPFs()
	fmt.Printf("LFK1: t_MA=%.3f t_MAC=%.3f t_MACS=%.3f CPF (paper: 0.600 0.800 0.840)\n",
		tma, tmac, tmacs)
	fmt.Println("validated:", r.Validated)
	// Output:
	// LFK1: t_MA=0.600 t_MAC=0.800 t_MACS=0.840 CPF (paper: 0.600 0.800 0.840)
	// validated: true
}

// ExampleDiagnose applies the §4.4 rules to a first-difference loop with
// its measured A/X decomposition: memory dominates.
func ExampleDiagnose() {
	res, err := macs.AnalyzeSource(`
PROGRAM P
REAL X(2001), Y(2001)
INTEGER N, K
DO K = 1, N
  X(K) = Y(K+1) - Y(K)
ENDDO
END
`, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	d := macs.Diagnose(macs.DiagnosisInputs{
		Analysis: res.Analysis,
		TP:       4.0, TA: 3.9, TX: 1.1,
	})
	fmt.Println("primary cause:", d.Primary())
	// Output:
	// primary cause: memory-bound
}
