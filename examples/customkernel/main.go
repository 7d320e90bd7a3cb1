// Customkernel: bring your own loop. This example writes a small
// wave-propagation stencil in the Fortran subset, compiles it, inspects
// the chime structure the machine will execute, computes the full bounds
// hierarchy, and runs the A/X decomposition to locate the bottleneck —
// exactly the methodology §4.4 of the paper applies to the LFKs.
package main

import (
	"fmt"
	"log"

	"macs"
)

// A 5-point smoothing stencil with a scaling: 4 adds, 2 multiplies,
// reading one array at five offsets (one reused stream for MA).
const src = `
PROGRAM WAVE
REAL U(4096), OUT(4096)
REAL C1, C2
INTEGER N, K
DO K = 3, N
  OUT(K) = C1*U(K) + C2*(U(K-2) + U(K-1) + U(K+1) + U(K+2))
ENDDO
END
`

func main() {
	const n = 3000
	u := make([]float64, n+4)
	for i := range u {
		u[i] = float64(i % 17)
	}
	in := macs.Inputs{
		Ints:   map[string]int64{"N": n},
		Reals:  map[string]float64{"C1": 0.5, "C2": 0.125},
		Arrays: map[string][]float64{"U": u},
	}
	res, err := macs.AnalyzeSource(src, n-2, in.Prime())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Custom kernel: 5-point stencil")
	fmt.Println("------------------------------")
	fmt.Print(res.Report())

	a := res.Analysis
	fmt.Printf("\nchime structure (%d chimes):\n", len(a.MACS.Chimes))
	for i, ch := range a.MACS.Chimes {
		fmt.Printf("  chime %d (%d members, Zmax=%.2f, bubbles=%d):\n", i+1, len(ch.Members), ch.ZMax, ch.SumB)
		for _, in := range ch.Members {
			fmt.Printf("      %s\n", in)
		}
	}

	// A/X decomposition: is the loop memory- or compute-bound?
	m, err := macs.MeasureAX(res.Program, macs.DefaultVMConfig(), macs.Inputs{Ints: in.Ints}.Prime())
	if err != nil {
		log.Fatal(err)
	}
	iters := float64(n - 2)
	ta, tx := float64(m.TA)/iters, float64(m.TX)/iters
	fmt.Printf("\nA/X: t_a = %.3f CPL (access), t_x = %.3f CPL (execute)\n", ta, tx)
	switch {
	case ta > 1.2*tx:
		fmt.Println("=> memory-bound: the MA->MAC load gap is where to optimize")
	case tx > 1.2*ta:
		fmt.Println("=> compute-bound: the FP pipes are the bottleneck")
	default:
		fmt.Println("=> balanced: access and execute overlap well")
	}
}
