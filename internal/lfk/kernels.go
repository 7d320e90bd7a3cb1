package lfk

import (
	"macs/internal/compiler"
	"macs/internal/core"
)

// LFK1 is the hydro fragment: X(k) = Q + Y(k)*(R*ZX(k+10) + T*ZX(k+11)).
func LFK1() *Kernel {
	const n = 1001
	k := &Kernel{
		ID:   1,
		Name: "hydro fragment",
		Source: `
PROGRAM LFK1
REAL X(2001), Y(2001), ZX(2048)
REAL Q, R, T
INTEGER N, K
DO K = 1, N
  X(K) = Q + Y(K)*(R*ZX(K+10) + T*ZX(K+11))
ENDDO
END
`,
		N:        n,
		Elements: n,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints:  map[string]int64{"N": n},
			Reals: map[string]float64{"Q": 0.5, "R": 0.25, "T": 0.125},
			Arrays: map[string][]float64{
				"Y":  fill(1, 2001),
				"ZX": fill(2, 2048),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			TMA: 0.600, TMAC: 0.800, TMACS: 0.840, TP: 0.852,
			MA: core.Workload{FA: 2, FM: 3, Loads: 2, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		y, zx := k.Arrays["Y"], k.Arrays["ZX"]
		q, r, t := k.Reals["Q"], k.Reals["R"], k.Reals["T"]
		x := make([]float64, 2001)
		for i := 1; i <= n; i++ {
			x[i-1] = q + y[i-1]*(r*zx[i+9]+t*zx[i+10])
		}
		return map[string][]float64{"X": x}
	}
	return k
}

// LFK2 is the excerpt from an incomplete Cholesky conjugate gradient:
// a halving cascade of stride-2 updates with an outer GOTO loop.
func LFK2() *Kernel {
	const n = 101
	k := &Kernel{
		ID:   2,
		Name: "ICCG excerpt",
		Source: `
PROGRAM LFK2
REAL X(2048), V(2048)
INTEGER N, II, IPNT, IPNTP, I, K
II = N
IPNTP = 0
100 CONTINUE
IPNT = IPNTP
IPNTP = IPNTP + II
II = II / 2
I = IPNTP + 1
CDIR$ IVDEP
DO K = IPNT + 2, IPNTP, 2
  I = I + 1
  X(I) = X(K) - V(K)*X(K-1) - V(K+1)*X(K+1)
ENDDO
IF (II .GT. 1) GOTO 100
END
`,
		N:       n,
		Entries: 6,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"X": fill(3, 2048),
				"V": scale(fill(4, 2048), 0.1),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			TMA: 1.250, TMAC: 1.500, TMACS: 1.566, TP: 3.773,
			MA: core.Workload{FA: 2, FM: 2, Loads: 4, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		x := append([]float64(nil), k.Arrays["X"]...)
		v := k.Arrays["V"]
		elems := 0
		var lengths []int
		ii := n
		ipntp := 0
		for {
			ipnt := ipntp
			ipntp += ii
			ii /= 2
			i := ipntp + 1
			passLen := 0
			for kk := ipnt + 2; kk <= ipntp; kk += 2 {
				i++
				x[i-1] = x[kk-1] - v[kk-1]*x[kk-2] - v[kk]*x[kk]
				elems++
				passLen++
			}
			lengths = append(lengths, passLen)
			if ii <= 1 {
				break
			}
		}
		k.Elements = elems
		k.EntryLengths = lengths
		return map[string][]float64{"X": x}
	}
	// Fix the element count now (the reference is deterministic).
	k.Reference(k)
	return k
}

// LFK3 is the inner product: Q = Q + Z(k)*X(k).
func LFK3() *Kernel {
	const n = 1001
	k := &Kernel{
		ID:   3,
		Name: "inner product",
		Source: `
PROGRAM LFK3
REAL Z(2048), X(2048), Q
INTEGER N, K
DO K = 1, N
  Q = Q + Z(K)*X(K)
ENDDO
END
`,
		N:        n,
		Elements: n,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints:  map[string]int64{"N": n},
			Reals: map[string]float64{"Q": 0.0},
			Arrays: map[string][]float64{
				"Z": fill(5, 2048),
				"X": fill(6, 2048),
			},
		},
		Outputs: []string{"Q"},
		Paper: PaperRow{
			TMA: 1.000, TMAC: 1.000, TMACS: 1.044, TP: 1.128,
			MA: core.Workload{FA: 1, FM: 1, Loads: 2, Stores: 0},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		z, x := k.Arrays["Z"], k.Arrays["X"]
		q := k.Reals["Q"]
		for i := 0; i < n; i++ {
			q += z[i] * x[i]
		}
		return map[string][]float64{"Q": {q}}
	}
	return k
}

// LFK4 is the banded linear equations kernel: strided dot products
// folded back into the band.
func LFK4() *Kernel {
	const n = 1001
	k := &Kernel{
		ID:   4,
		Name: "banded linear equations",
		Source: `
PROGRAM LFK4
REAL X(2048), Y(2048), TEMP
INTEGER N, J, K, LW
DO K = 7, 107, 50
  LW = K - 6
  TEMP = X(K-1)
  DO J = 5, N, 5
    TEMP = TEMP - X(LW)*Y(J)
    LW = LW + 1
  ENDDO
  X(K-1) = Y(5)*TEMP
ENDDO
END
`,
		N:        n,
		Elements: 3 * ((n-5)/5 + 1),
		Entries:  3,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"X": scale(fill(7, 2048), 0.1),
				"Y": scale(fill(8, 2048), 0.1),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			TMA: 1.000, TMAC: 1.000, TMACS: 1.226, TP: 1.863,
			MA: core.Workload{FA: 1, FM: 1, Loads: 2, Stores: 0},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		x := append([]float64(nil), k.Arrays["X"]...)
		y := k.Arrays["Y"]
		for kk := 7; kk <= 107; kk += 50 {
			lw := kk - 6
			temp := x[kk-2]
			for j := 5; j <= n; j += 5 {
				temp -= x[lw-1] * y[j-1]
				lw++
			}
			x[kk-2] = y[4] * temp
		}
		return map[string][]float64{"X": x}
	}
	return k
}

// LFK6 is the general linear recurrence: W(i) accumulates B(k,i)*W(i-k)
// over all earlier elements, giving short average vector lengths.
func LFK6() *Kernel {
	const n = 64
	elems := 0
	for i := 2; i <= n; i++ {
		elems += i - 1
	}
	var tri []int
	for i := 2; i <= n; i++ {
		tri = append(tri, i-1)
	}
	k := &Kernel{
		ID:   6,
		Name: "general linear recurrence",
		Source: `
PROGRAM LFK6
REAL W(1024), B(64,64)
INTEGER N, I, K
DO I = 2, N
  W(I) = 0.0100
CDIR$ IVDEP
  DO K = 1, I-1
    W(I) = W(I) + B(K,I)*W(I-K)
  ENDDO
ENDDO
END
`,
		N:            n,
		Elements:     elems,
		Entries:      63,
		EntryLengths: tri,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"W": prefix(1024, []float64{0.01}),
				"B": scale(fill(9, 64*64), 0.01),
			},
		},
		Outputs: []string{"W"},
		Paper: PaperRow{
			TMA: 1.000, TMAC: 1.000, TMACS: 1.220, TP: 2.632,
			MA: core.Workload{FA: 1, FM: 1, Loads: 2, Stores: 0},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		w := append([]float64(nil), k.Arrays["W"]...)
		b := k.Arrays["B"]
		for i := 2; i <= n; i++ {
			w[i-1] = 0.01
			for kk := 1; kk <= i-1; kk++ {
				w[i-1] += b[(kk-1)+(i-1)*64] * w[i-kk-1]
			}
		}
		return map[string][]float64{"W": w}
	}
	return k
}

// LFK7 is the equation-of-state fragment: 16 flops per element on four
// unit-stride streams.
func LFK7() *Kernel {
	const n = 995
	k := &Kernel{
		ID:   7,
		Name: "equation of state fragment",
		Source: `
PROGRAM LFK7
REAL X(2048), Y(2048), Z(2048), U(2048)
REAL R, T, Q
INTEGER N, K
DO K = 1, N
  X(K) = U(K) + R*(Z(K) + R*Y(K)) + T*(U(K+3) + R*(U(K+2) + R*U(K+1)) + T*(U(K+6) + Q*(U(K+5) + Q*U(K+4))))
ENDDO
END
`,
		N:        n,
		Elements: n,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints:  map[string]int64{"N": n},
			Reals: map[string]float64{"R": 0.5, "T": 0.25, "Q": 0.125},
			Arrays: map[string][]float64{
				"Y": fill(10, 2048),
				"Z": fill(11, 2048),
				"U": fill(12, 2048),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			TMA: 0.500, TMAC: 0.625, TMACS: 0.656, TP: 0.681,
			MA: core.Workload{FA: 8, FM: 8, Loads: 3, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		y, z, u := k.Arrays["Y"], k.Arrays["Z"], k.Arrays["U"]
		r, t, q := k.Reals["R"], k.Reals["T"], k.Reals["Q"]
		x := make([]float64, 2048)
		for i := 0; i < n; i++ {
			x[i] = u[i] + r*(z[i]+r*y[i]) +
				t*(u[i+3]+r*(u[i+2]+r*u[i+1])+
					t*(u[i+6]+q*(u[i+5]+q*u[i+4])))
		}
		return map[string][]float64{"X": x}
	}
	return k
}

// LFK8 is the ADI integration fragment: three coupled PDE updates whose
// eleven loop-invariant coefficients exceed the scalar register file, so
// the compiled loop reloads scalars and splits chimes (paper §4.4).
func LFK8() *Kernel {
	const n = 100
	k := &Kernel{
		ID:   8,
		Name: "ADI integration",
		Source: `
PROGRAM LFK8
REAL U1(5,101,2), U2(5,101,2), U3(5,101,2)
REAL DU1(101), DU2(101), DU3(101)
REAL A11, A12, A13, A21, A22, A23, A31, A32, A33, SIG
INTEGER N, KX, KY, NL1, NL2
NL1 = 1
NL2 = 2
DO KX = 2, 3
CDIR$ IVDEP
DO KY = 2, N
  DU1(KY) = U1(KX,KY+1,NL1) - U1(KX,KY-1,NL1)
  DU2(KY) = U2(KX,KY+1,NL1) - U2(KX,KY-1,NL1)
  DU3(KY) = U3(KX,KY+1,NL1) - U3(KX,KY-1,NL1)
  U1(KX,KY,NL2) = U1(KX,KY,NL1) + A11*DU1(KY) + A12*DU2(KY) + A13*DU3(KY) + SIG*(U1(KX+1,KY,NL1) - 2.0*U1(KX,KY,NL1) + U1(KX-1,KY,NL1))
  U2(KX,KY,NL2) = U2(KX,KY,NL1) + A21*DU1(KY) + A22*DU2(KY) + A23*DU3(KY) + SIG*(U2(KX+1,KY,NL1) - 2.0*U2(KX,KY,NL1) + U2(KX-1,KY,NL1))
  U3(KX,KY,NL2) = U3(KX,KY,NL1) + A31*DU1(KY) + A32*DU2(KY) + A33*DU3(KY) + SIG*(U3(KX+1,KY,NL1) - 2.0*U3(KX,KY,NL1) + U3(KX-1,KY,NL1))
ENDDO
ENDDO
END
`,
		N:        n,
		Elements: 2 * (n - 1),
		Entries:  2,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Reals: map[string]float64{
				"A11": 0.1, "A12": 0.2, "A13": 0.3,
				"A21": 0.4, "A22": 0.5, "A23": 0.6,
				"A31": 0.7, "A32": 0.8, "A33": 0.9,
				"SIG": 0.25,
			},
			Arrays: map[string][]float64{
				"U1": fill(13, 5*101*2),
				"U2": fill(14, 5*101*2),
				"U3": fill(15, 5*101*2),
			},
		},
		Outputs: []string{"U1", "U2", "U3", "DU1", "DU2", "DU3"},
		Paper: PaperRow{
			TMA: 0.583, TMAC: 0.583, TMACS: 0.824, TP: 0.858,
			MA: core.Workload{FA: 21, FM: 15, Loads: 9, Stores: 6},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		u1 := append([]float64(nil), k.Arrays["U1"]...)
		u2 := append([]float64(nil), k.Arrays["U2"]...)
		u3 := append([]float64(nil), k.Arrays["U3"]...)
		du1 := make([]float64, 101)
		du2 := make([]float64, 101)
		du3 := make([]float64, 101)
		at := func(kx, ky, nl int) int { return (kx - 1) + (ky-1)*5 + (nl-1)*505 }
		r := k.Reals
		sig := r["SIG"]
		for kx := 2; kx <= 3; kx++ {
			for ky := 2; ky <= n; ky++ {
				du1[ky-1] = u1[at(kx, ky+1, 1)] - u1[at(kx, ky-1, 1)]
				du2[ky-1] = u2[at(kx, ky+1, 1)] - u2[at(kx, ky-1, 1)]
				du3[ky-1] = u3[at(kx, ky+1, 1)] - u3[at(kx, ky-1, 1)]
				u1[at(kx, ky, 2)] = u1[at(kx, ky, 1)] + r["A11"]*du1[ky-1] + r["A12"]*du2[ky-1] + r["A13"]*du3[ky-1] +
					sig*(u1[at(kx+1, ky, 1)]-2.0*u1[at(kx, ky, 1)]+u1[at(kx-1, ky, 1)])
				u2[at(kx, ky, 2)] = u2[at(kx, ky, 1)] + r["A21"]*du1[ky-1] + r["A22"]*du2[ky-1] + r["A23"]*du3[ky-1] +
					sig*(u2[at(kx+1, ky, 1)]-2.0*u2[at(kx, ky, 1)]+u2[at(kx-1, ky, 1)])
				u3[at(kx, ky, 2)] = u3[at(kx, ky, 1)] + r["A31"]*du1[ky-1] + r["A32"]*du2[ky-1] + r["A33"]*du3[ky-1] +
					sig*(u3[at(kx+1, ky, 1)]-2.0*u3[at(kx, ky, 1)]+u3[at(kx-1, ky, 1)])
			}
		}
		return map[string][]float64{
			"U1": u1, "U2": u2, "U3": u3,
			"DU1": du1, "DU2": du2, "DU3": du3,
		}
	}
	return k
}

// LFK9 is the integrate-predictors kernel: a nine-term polynomial update
// of the first row of PX with stride-25 streams.
func LFK9() *Kernel {
	const n = 101
	k := &Kernel{
		ID:   9,
		Name: "integrate predictors",
		Source: `
PROGRAM LFK9
REAL PX(25,101)
REAL DM28, DM27, DM26, DM25, DM24, DM23, DM22, C0
INTEGER N, I
DO I = 1, N
  PX(1,I) = DM28*PX(13,I) + DM27*PX(12,I) + DM26*PX(11,I) + DM25*PX(10,I) + DM24*PX(9,I) + DM23*PX(8,I) + DM22*PX(7,I) + C0*(PX(5,I) + PX(6,I)) + PX(3,I)
ENDDO
END
`,
		N:        n,
		Elements: n,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Reals: map[string]float64{
				"DM28": 0.1, "DM27": 0.2, "DM26": 0.3, "DM25": 0.4,
				"DM24": 0.5, "DM23": 0.6, "DM22": 0.7, "C0": 0.8,
			},
			Arrays: map[string][]float64{
				"PX": fill(16, 25*101),
			},
		},
		Outputs: []string{"PX"},
		Paper: PaperRow{
			TMA: 0.647, TMAC: 0.647, TMACS: 0.679, TP: 0.749,
			MA: core.Workload{FA: 9, FM: 8, Loads: 10, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		px := append([]float64(nil), k.Arrays["PX"]...)
		r := k.Reals
		at := func(j, i int) int { return (j - 1) + (i-1)*25 }
		for i := 1; i <= n; i++ {
			px[at(1, i)] = r["DM28"]*px[at(13, i)] + r["DM27"]*px[at(12, i)] +
				r["DM26"]*px[at(11, i)] + r["DM25"]*px[at(10, i)] +
				r["DM24"]*px[at(9, i)] + r["DM23"]*px[at(8, i)] +
				r["DM22"]*px[at(7, i)] + r["C0"]*(px[at(5, i)]+px[at(6, i)]) +
				px[at(3, i)]
		}
		return map[string][]float64{"PX": px}
	}
	return k
}

// LFK10 is the difference-predictors kernel: a cascade of nine
// subtractions rippling through rows 5..14 of PX.
func LFK10() *Kernel {
	const n = 101
	k := &Kernel{
		ID:   10,
		Name: "difference predictors",
		Source: `
PROGRAM LFK10
REAL PX(25,101), CX(25,101)
REAL T0, T1, T2, T3, T4, T5, T6, T7, T8, T9
INTEGER N, I
DO I = 1, N
  T0 = CX(5,I)
  T1 = T0 - PX(5,I)
  PX(5,I) = T0
  T2 = T1 - PX(6,I)
  PX(6,I) = T1
  T3 = T2 - PX(7,I)
  PX(7,I) = T2
  T4 = T3 - PX(8,I)
  PX(8,I) = T3
  T5 = T4 - PX(9,I)
  PX(9,I) = T4
  T6 = T5 - PX(10,I)
  PX(10,I) = T5
  T7 = T6 - PX(11,I)
  PX(11,I) = T6
  T8 = T7 - PX(12,I)
  PX(12,I) = T7
  T9 = T8 - PX(13,I)
  PX(13,I) = T8
  PX(14,I) = T9
ENDDO
END
`,
		N:        n,
		Elements: n,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"PX": fill(17, 25*101),
				"CX": fill(18, 25*101),
			},
		},
		Outputs: []string{"PX"},
		Paper: PaperRow{
			TMA: 2.222, TMAC: 2.222, TMACS: 2.328, TP: 2.442,
			MA: core.Workload{FA: 9, FM: 0, Loads: 10, Stores: 10},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		px := append([]float64(nil), k.Arrays["PX"]...)
		cx := k.Arrays["CX"]
		at := func(j, i int) int { return (j - 1) + (i-1)*25 }
		for i := 1; i <= n; i++ {
			t := make([]float64, 10)
			t[0] = cx[at(5, i)]
			for s := 1; s <= 9; s++ {
				t[s] = t[s-1] - px[at(4+s, i)]
				px[at(4+s, i)] = t[s-1]
			}
			px[at(14, i)] = t[9]
		}
		return map[string][]float64{"PX": px}
	}
	return k
}

// LFK12 is the first difference: X(k) = Y(k+1) - Y(k).
func LFK12() *Kernel {
	const n = 1000
	k := &Kernel{
		ID:   12,
		Name: "first difference",
		Source: `
PROGRAM LFK12
REAL X(2001), Y(2001)
INTEGER N, K
DO K = 1, N
  X(K) = Y(K+1) - Y(K)
ENDDO
END
`,
		N:        n,
		Elements: n,
		Entries:  1,
		Inputs: compiler.Inputs{
			Ints: map[string]int64{"N": n},
			Arrays: map[string][]float64{
				"Y": fill(19, 2001),
			},
		},
		Outputs: []string{"X"},
		Paper: PaperRow{
			TMA: 2.000, TMAC: 3.000, TMACS: 3.132, TP: 3.182,
			MA: core.Workload{FA: 1, FM: 0, Loads: 1, Stores: 1},
		},
	}
	k.Reference = func(k *Kernel) map[string][]float64 {
		y := k.Arrays["Y"]
		x := make([]float64, 2001)
		for i := 0; i < n; i++ {
			x[i] = y[i+1] - y[i]
		}
		return map[string][]float64{"X": x}
	}
	return k
}

// scale multiplies every element by c.
func scale(a []float64, c float64) []float64 {
	for i := range a {
		a[i] *= c
	}
	return a
}

// prefix returns an n-element array starting with the given values.
func prefix(n int, vals []float64) []float64 {
	out := make([]float64, n)
	copy(out, vals)
	return out
}
