// Decomposition: the paper's proposed "D" degree of freedom (§3.1) in
// action. Summing a row of a matrix whose leading dimension is a power
// of two makes every vector element hit the same memory bank; padding
// the leading dimension to an odd size restores full bandwidth. The
// MACS-D bound predicts the penalty before running anything, and the
// advisor names the fix.
package main

import (
	"fmt"
	"log"

	"macs"
	"macs/internal/isa"
)

// rowSum builds a kernel summing row 1 of A(LD, 128): the vector index J
// strides LD elements.
func rowSum(ld int) string {
	return fmt.Sprintf(`
PROGRAM ROWSUM
REAL A(%d,128), Q
INTEGER N, J
DO J = 1, N
  Q = Q + A(1,J)
ENDDO
END
`, ld)
}

func analyze(name string, ld int) (measured float64, err error) {
	const n = 128
	// Row 1 of A(LD,128): element (1,J) is word (J-1)*LD.
	a := make([]float64, (n-1)*ld+1)
	for j := 0; j < n; j++ {
		a[j*ld] = 1.5
	}
	in := macs.Inputs{Ints: map[string]int64{"N": n}, Arrays: map[string][]float64{"A": a}}
	res, err := macs.AnalyzeSource(rowSum(ld), n, in.Prime())
	if err != nil {
		return 0, err
	}
	macsd, err := macs.MACSDBoundOf(res.Program, isa.VLMax, macs.DefaultRules())
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s (leading dimension %d):\n", name, ld)
	fmt.Printf("  t_MACS  = %6.3f CPL (decomposition-blind)\n", res.Analysis.MACS.CPL)
	fmt.Printf("  t_MACSD = %6.3f CPL (bank-aware bound)\n", macsd)
	fmt.Printf("  t_p     = %6.3f CPL (measured)\n", res.MeasuredCPL)

	d := macs.Diagnose(macs.DiagnosisInputs{
		Analysis: res.Analysis,
		TP:       res.MeasuredCPL,
		TA:       res.MeasuredCPL, // the loop is all memory
		TX:       0.5,
		TMACSD:   macsd,
	})
	if d.Has("data-decomposition") {
		fmt.Println("  advisor: data-decomposition — pad the leading dimension to an odd size")
	} else {
		fmt.Println("  advisor: decomposition is clean")
	}
	fmt.Println()
	return res.MeasuredCPL, nil
}

func main() {
	fmt.Println("The D degree of freedom: data decomposition in the 32 banks")
	fmt.Println("============================================================")
	// 256 elements = 32 words x 8: stride lands on one bank.
	bad, err := analyze("power-of-two layout", 256)
	if err != nil {
		log.Fatal(err)
	}
	// 257: odd leading dimension visits every bank.
	good, err := analyze("padded layout", 257)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("padding the leading dimension 256 -> 257 is %.1fx faster\n", bad/good)
}
