// Quickstart: compile a small kernel, compute its MACS bounds hierarchy,
// run it on the simulated Convex C-240 and compare measured performance
// with the bounds — the whole pipeline of the paper in a dozen lines.
package main

import (
	"fmt"
	"log"

	"macs"
)

const src = `
PROGRAM SAXPY
REAL X(2048), Y(2048), A
INTEGER N, K
DO K = 1, N
  Y(K) = Y(K) + A*X(K)
ENDDO
END
`

func main() {
	const n = 2000
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i), 1.0
	}
	// Inputs are set by source variable name.
	in := macs.Inputs{
		Ints:   map[string]int64{"N": n},
		Reals:  map[string]float64{"A": 2.5},
		Arrays: map[string][]float64{"X": x, "Y": y},
	}
	res, err := macs.AnalyzeSource(src, n, in.Prime())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("SAXPY on the simulated Convex C-240")
	fmt.Println("-----------------------------------")
	fmt.Print(res.Report())
	fmt.Println()
	fmt.Println("Compiled inner loop:")
	fmt.Print(res.Program.String())

	// The gap between each pair of levels tells you where time goes:
	// MA->MAC is compiler-inserted work, MAC->MACS is schedule effects
	// (startup bubbles, refresh), MACS->measured is everything unmodeled.
	a := res.Analysis
	fmt.Printf("\ngap analysis: compiler +%.3f CPL, schedule +%.3f CPL, unmodeled +%.3f CPL\n",
		a.TMAC-a.TMA, a.MACS.CPL-a.TMAC, res.MeasuredCPL-a.MACS.CPL)
}
