package main

import (
	"fmt"
	"math/rand"
	"strings"

	"macs/internal/explore"
	"macs/internal/lfk"
)

// This file makes every workload's inputs from the seed. The generators
// stratify the properties that set a request's cost (trip count,
// statement count, stride, kernel, grid shape) over fixed-size blocks and
// let the seed choose only the order and the details inside each stratum,
// so two seeds ask the service for different programs of the same mix of
// work.

// coldArray is the declared length of every 1-D array in a generated
// kernel: it covers the largest index a kernel can touch (offset 3 past
// a trip of 4000 at stride 8).
const coldArray = 32800

// coldKernel is one analyze-cold input: a program text no other request
// of the process carries, the value primed into N and the loop's true
// trip count.
type coldKernel struct {
	src   string
	n     int64
	trips int64
}

// coldBlock is the stratification period of the cold generator: each
// block of 24 kernels holds every statement count 8 times, every stride
// 3 times and one trip count from each of 24 equal slices of
// [coldTripLo, coldTripHi).
const coldBlock = 24

const (
	coldTripLo = 100
	coldTripHi = 4000
)

// genCold returns count vectorizable kernels in the style of the
// compiler's differential fuzzer: one DO loop over N with stride 1-8,
// 1-3 statements that each write a different array or reduce into Q,
// and expressions over distinct reads of A, B and columns of the 2-D
// array M2. Every read is distinct and every constant is new, so the
// compiler has no common subexpression to remove and t_MA <= t_MAC holds.
// The program name carries the request index, which makes every text
// unique.
func genCold(seed int64, count int) []coldKernel {
	r := rand.New(rand.NewSource(seed))
	out := make([]coldKernel, 0, count)
	var stmts, strides, strata []int
	for i := 0; i < count; i++ {
		j := i % coldBlock
		if j == 0 {
			stmts = shuffled(r, coldBlock, func(k int) int { return 1 + k%3 })
			strides = shuffled(r, coldBlock, func(k int) int { return 1 + k%8 })
			strata = shuffled(r, coldBlock, func(k int) int { return k })
		}
		span := float64(coldTripHi-coldTripLo) / coldBlock
		trips := int64(coldTripLo + (float64(strata[j])+r.Float64())*span)
		out = append(out, coldKernelOf(r, i, stmts[j], strides[j], trips))
	}
	return out
}

// shuffled returns the values f(0..n-1) in a seed-chosen order.
func shuffled(r *rand.Rand, n int, f func(int) int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = f(i)
	}
	r.Shuffle(n, func(a, b int) { v[a], v[b] = v[b], v[a] })
	return v
}

func coldKernelOf(r *rand.Rand, index, stmts, step int, trips int64) coldKernel {
	lo := 1 + r.Intn(3)
	// N = lo + (trips-1)*step + rem, rem < step: the loop runs exactly
	// trips times whatever the remainder.
	n := int64(lo) + (trips-1)*int64(step) + int64(r.Intn(step))

	// Reads are drawn without replacement from this pool.
	var pool []string
	for _, arr := range []string{"A", "B"} {
		for off := 1 - lo; off <= 3; off++ {
			switch {
			case off > 0:
				pool = append(pool, fmt.Sprintf("%s(K+%d)", arr, off))
			case off < 0:
				pool = append(pool, fmt.Sprintf("%s(K-%d)", arr, -off))
			default:
				pool = append(pool, arr+"(K)")
			}
		}
	}
	for c := 1; c <= 7; c++ {
		pool = append(pool, fmt.Sprintf("M2(%d,K)", c))
	}
	r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	g := &exprGen{r: r, pool: pool}

	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM G%07d\n", index)
	fmt.Fprintf(&b, "REAL A(%d), B(%d), C(%d), D(%d), E(%d)\n",
		coldArray, coldArray, coldArray, coldArray, coldArray)
	fmt.Fprintf(&b, "REAL M2(7,%d)\n", coldArray)
	b.WriteString("REAL Q\nINTEGER N, K\n")
	fmt.Fprintf(&b, "DO K = %d, N, %d\n", lo, step)
	// Each statement takes its own target: at most one reduction, and no
	// array written twice, so the loop carries no dependence to refuse.
	targets := []string{"Q", "C", "D", "E"}
	r.Shuffle(len(targets), func(a, c int) { targets[a], targets[c] = targets[c], targets[a] })
	for s := 0; s < stmts; s++ {
		expr, _ := g.expr(0, true)
		if t := targets[s]; t == "Q" {
			fmt.Fprintf(&b, "  Q = Q + %s\n", expr)
		} else {
			fmt.Fprintf(&b, "  %s(K) = %s\n", t, expr)
		}
	}
	b.WriteString("ENDDO\nEND\n")
	return coldKernel{src: b.String(), n: n, trips: trips}
}

// exprGen builds expression trees whose leaves are distinct reads or
// fresh constants. No operator gets two constant operands, so the
// compiler has nothing to fold either.
type exprGen struct {
	r     *rand.Rand
	pool  []string
	konst int
}

// expr returns a tree of depth at most 2 and whether it is constant (holds
// no read); with constOK false it always holds a read.
func (g *exprGen) expr(depth int, constOK bool) (string, bool) {
	if depth >= 2 || (depth > 0 && g.r.Intn(3) == 0) {
		return g.leaf(constOK)
	}
	op := []string{"+", "-", "*"}[g.r.Intn(3)]
	left, lc := g.expr(depth+1, true)
	right, rc := g.expr(depth+1, !lc)
	return fmt.Sprintf("(%s %s %s)", left, op, right), lc && rc
}

func (g *exprGen) leaf(constOK bool) (string, bool) {
	if len(g.pool) > 0 && (!constOK || g.r.Intn(4) != 0) {
		v := g.pool[0]
		g.pool = g.pool[1:]
		return v, false
	}
	g.konst++
	return fmt.Sprintf("%d.%d", g.konst, 1+g.r.Intn(9)), true
}

// hotOrder returns count indices into the ten case-study kernels: seeded
// permutations of all ten, back to back, so every block of ten requests
// asks for each kernel once.
func hotOrder(seed int64, count int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, 0, count)
	for len(out) < count {
		out = append(out, r.Perm(len(lfk.All()))...)
	}
	return out[:count]
}

// The explore universe: every grid a sweep asks for is a sub-grid of
// these axes, so the machines of every sweep are among the 48 that
// set-up has already swept once.
var (
	universeBanks   = []float64{8, 16, 32, 64}
	universeRefresh = []float64{200, 400, 600, 800}
	universeVL      = []float64{32, 64, 128}
)

// Sweep grid shape: 2 bank counts x 3 refresh periods x 2 vector lengths.
const (
	gridBanks   = 2
	gridRefresh = 3
	gridVL      = 2
	gridPoints  = gridBanks * gridRefresh * gridVL
)

// universeGrid is the whole explore universe as one grid.
func universeGrid() explore.Grid {
	return explore.Grid{Axes: []explore.Axis{
		{Param: "banks", Values: universeBanks},
		{Param: "refresh-period", Values: universeRefresh},
		{Param: "vlmax", Values: universeVL},
	}}
}

// sweepInput is one explore input: a case-study kernel made new to the
// process by one extra leading declaration (which also shifts every
// array's bank alignment), and a seed-drawn sub-grid of the universe.
type sweepInput struct {
	kernel int // index into lfk.All()
	src    string
	grid   explore.Grid
}

// genSweeps returns count sweeps. Kernels rotate through seeded
// permutations of the ten case-study kernels, so every block of ten
// sweeps covers each once.
func genSweeps(seed int64, count int) []sweepInput {
	r := rand.New(rand.NewSource(seed))
	kernels := lfk.All()
	out := make([]sweepInput, 0, count)
	var perm []int
	for i := 0; i < count; i++ {
		if i%len(kernels) == 0 {
			perm = r.Perm(len(kernels))
		}
		k := perm[i%len(kernels)]
		pad := 1 + r.Intn(64)
		out = append(out, sweepInput{
			kernel: k,
			src:    variantSource(kernels[k].Source, i, pad),
			grid: explore.Grid{Axes: []explore.Axis{
				{Param: "banks", Values: pick(r, universeBanks, gridBanks)},
				{Param: "refresh-period", Values: pick(r, universeRefresh, gridRefresh)},
				{Param: "vlmax", Values: pick(r, universeVL, gridVL)},
			}},
		})
	}
	return out
}

// variantSource inserts a pad array declaration right after the PROGRAM
// line of a case-study kernel. The pad's name carries the sweep index, so
// the text is unique; its length shifts the data layout of the kernel.
func variantSource(src string, index, pad int) string {
	head, rest, _ := strings.Cut(strings.TrimLeft(src, "\n"), "\n")
	return fmt.Sprintf("%s\nREAL XP%07d(%d)\n%s", head, index, pad, rest)
}

// pick returns n of the values, in ascending universe order.
func pick(r *rand.Rand, values []float64, n int) []float64 {
	idx := r.Perm(len(values))[:n]
	out := make([]float64, 0, n)
	for i, v := range values {
		for _, j := range idx {
			if i == j {
				out = append(out, v)
			}
		}
	}
	return out
}

// resampleN is how many answers a run re-checks on a fresh simulator.
const resampleN = 48

// sample chooses resampleN request indices below min(count, within), a
// prefix of the requests that every full-length window gets through.
func sample(seed int64, count, within int) map[int]bool {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make(map[int]bool)
	limit := min(count, within)
	for len(out) < min(resampleN, limit) {
		out[r.Intn(limit)] = true
	}
	return out
}
