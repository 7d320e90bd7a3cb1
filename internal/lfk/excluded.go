package lfk

import (
	"macs/internal/compiler"
	"macs/internal/core"
)

// The paper's case study uses "ten of the first twelve" Livermore
// kernels: LFK5 and LFK11 are excluded because they are true first-order
// linear recurrences, which the C-240's vectorizer cannot vectorize
// ("No true loop-carried dependence cycle appears in the ten LFKs",
// §3.1). They are included here as scalar-fallback demonstrations: the
// compiler must detect the recurrence, refuse vectorization, and still
// compute correct results on the ASU.

// Excluded returns LFK5 and LFK11.
func Excluded() []*Kernel { return []*Kernel{LFK5(), LFK11()} }

// LFK5 is the tri-diagonal elimination (below diagonal):
// X(i) = Z(i)*(Y(i) - X(i-1)), a true recurrence on X.
func LFK5() *Kernel {
	const n = 1001
	k := &Kernel{
		ID:   5,
		Name: "tri-diagonal elimination (excluded: recurrence)",
		Source: `
PROGRAM LFK5
REAL X(2048), Y(2048), Z(2048)
INTEGER N, I
DO I = 2, N
  X(I) = Z(I)*(Y(I) - X(I-1))
ENDDO
END
`,
		N:        n,
		Elements: n - 1,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"X": scale(fill(20, 2048), 0.1),
				"Y": scale(fill(21, 2048), 0.1),
				"Z": scale(fill(22, 2048), 0.1),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			// Not in the paper's tables; MA counts recorded for the
			// record: 1 add, 1 multiply, 3 loads (X reuse impossible
			// serially), 1 store.
			MA: core.Workload{FA: 1, FM: 1, Loads: 2, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		x := append([]float64(nil), k.Arrays["X"]...)
		y, z := k.Arrays["Y"], k.Arrays["Z"]
		for i := 2; i <= n; i++ {
			x[i-1] = z[i-1] * (y[i-1] - x[i-2])
		}
		return map[string][]float64{"X": x}
	}
	return k
}

// LFK11 is the first sum: X(k) = X(k-1) + Y(k), a prefix-sum recurrence.
func LFK11() *Kernel {
	const n = 1001
	k := &Kernel{
		ID:   11,
		Name: "first sum (excluded: recurrence)",
		Source: `
PROGRAM LFK11
REAL X(2048), Y(2048)
INTEGER N, K
X(1) = Y(1)
DO K = 2, N
  X(K) = X(K-1) + Y(K)
ENDDO
END
`,
		N:        n,
		Elements: n - 1,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"Y": scale(fill(23, 2048), 0.01),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			MA: core.Workload{FA: 1, FM: 0, Loads: 1, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		y := k.Arrays["Y"]
		x := make([]float64, 2048)
		x[0] = y[0]
		for i := 2; i <= n; i++ {
			x[i-1] = x[i-2] + y[i-1]
		}
		return map[string][]float64{"X": x}
	}
	return k
}
