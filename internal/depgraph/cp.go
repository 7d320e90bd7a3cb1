package depgraph

import (
	"math"

	"macs/internal/asm"
	"macs/internal/isa"
)

// Params are the ASU timing parameters the critical-path weights need,
// mirroring the simulator's (and fast tier's) scalar knobs.
type Params struct {
	// ScalarOpLat is the ASU cost of one non-memory scalar instruction.
	ScalarOpLat int
	// ScalarLoadLat is the ASU cost of one scalar memory access.
	ScalarLoadLat int
	// DispatchLat is the ASU cost of dispatching one vector instruction.
	DispatchLat int
	// BranchPenalty is the extra cost of a taken branch.
	BranchPenalty int
}

// DefaultParams returns the C-240 ASU parameters, matching
// vm.DefaultMachine.
func DefaultParams() Params {
	return Params{ScalarOpLat: 1, ScalarLoadLat: 4, DispatchLat: 1, BranchPenalty: 2}
}

// CP is the critical-path analysis of one loop body.
//
// Every figure is a provable lower bound on machine time. Len is the
// longest true-dependence chain through one pass of the body at VL
// (chaining-aware weights). IISerial is the minimum ASU time of one pass
// (the ASU issues the body serially, so successive passes are at least
// this far apart). IICarried is the strongest loop-carried recurrence:
// the minimum delay between successive iterations imposed by a value an
// iteration computes and the next one consumes, evaluated at VL=1 so it
// holds for every strip including the short remainder. II is the
// per-pass initiation bound max(IISerial, IICarried), and CPL = II/VL is
// the reported t_CP in cycles per element — comparable to (and never
// above) the measured CPL whenever the body is straight-line.
type CP struct {
	VL  int
	Len int64
	// IISerial and IICarried bound the per-pass initiation interval;
	// II is their maximum.
	IISerial  int64
	IICarried int64
	II        int64
	// CPL is t_CP in cycles per element (0 when the body is not
	// straight-line: no per-pass claim can be made then).
	CPL float64
	// StraightLine reports whether the body is branch-free except for
	// the final back branch — the shape the per-pass bounds require.
	StraightLine bool
	// Crit is the instruction index chain realizing Len, producer first.
	Crit []int

	// Conservative internals for TotalBound, evaluated at VL=1 so they
	// hold for arbitrary per-strip vector lengths.
	len1 int64
	recs []recurrence
}

// recurrence is one carried dependence cycle: successive starts of its
// head instruction are at least cyc apart, and the first completion of
// the head costs at least prefix.
type recurrence struct {
	prefix, cyc int64
}

// edgeWeight returns a provable lower bound on the start-to-start delay
// one dependence edge enforces between its endpoint instructions, in
// cycles. ok is false when the edge does not constrain timing: anti and
// output dependences order register reuse without any enforced stall,
// and memory-symbol dependences are serialized by the shared port and
// pipe, not by the dependence itself. Every EdgeKind must be handled
// here — cmd/macsvet's depgraph rule checks the switch is exhaustive.
func edgeWeight(body []isa.Instr, e Edge, vl int, p Params) (w int64, ok bool) {
	switch e.Kind {
	case EdgeTrue:
		if e.Mem {
			return 0, false
		}
		prod := body[e.From]
		if prod.IsVector() {
			pt, hasT := isa.VectorTiming(prod.Op)
			if !hasT {
				return 0, false
			}
			if e.Reg.Class == isa.ClassV {
				// Chained consumer: first operand arrives Y cycles after
				// the producer starts, plus the rate mismatch over the
				// stream. This under-approximates both the chained case
				// (equality) and the cross-chime/unchained case (the
				// consumer then waits for the producer to finish).
				w = int64(pt.Y)
				var zc float64
				if cons := body[e.To]; cons.IsVector() {
					if ct, okc := isa.VectorTiming(cons.Op); okc {
						zc = ct.Z
					}
				}
				if pt.Z > zc && vl > 1 {
					w += int64(math.Ceil((pt.Z - zc) * float64(vl-1)))
				}
				return w, true
			}
			// Vector-produced scalar (sum.d): the consumer waits for the
			// reduction to finish streaming.
			return int64(pt.Y) + int64(math.Ceil(pt.Z*float64(vl))), true
		}
		// Scalar producer: the ASU is serial, so the consumer issues at
		// least the producer's latency later.
		if prod.IsMemory() {
			return int64(p.ScalarLoadLat), true
		}
		return int64(p.ScalarOpLat), true
	case EdgeAnti, EdgeOutput:
		return 0, false
	}
	return 0, false
}

// completion returns a lower bound on the cycles from an instruction's
// start to its last effect.
func completion(in isa.Instr, vl int, p Params) int64 {
	if in.IsVector() {
		if t, ok := isa.VectorTiming(in.Op); ok {
			return int64(t.Y) + int64(math.Ceil(t.Z*float64(vl)))
		}
		return int64(p.DispatchLat)
	}
	if in.IsMemory() {
		return int64(p.ScalarLoadLat)
	}
	if in.Op == isa.OpHalt {
		return 0
	}
	return int64(p.ScalarOpLat)
}

// asuCost returns the minimum ASU clock advance of one instruction — the
// per-pass serial floor. Taken-branch penalties are excluded (the final
// pass falls through), keeping the figure a floor for every pass.
func asuCost(in isa.Instr, p Params) int64 {
	switch {
	case in.IsVector():
		return int64(p.DispatchLat)
	case in.Op == isa.OpHalt:
		return 0
	case in.Op == isa.OpJmp:
		return int64(p.ScalarOpLat + p.BranchPenalty)
	case in.IsMemory():
		return int64(p.ScalarLoadLat)
	}
	return int64(p.ScalarOpLat)
}

// longestFrom computes, over the timing-relevant non-carried edges, the
// longest weighted path from src to every node (negative = unreachable).
// Non-carried edges point forward, so one sweep in index order relaxes
// every path.
func longestFrom(g *Graph, adj [][]int, src, vl int, p Params) []int64 {
	dist := make([]int64, len(g.Body))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for i := src; i < len(g.Body); i++ {
		if dist[i] < 0 {
			continue
		}
		for _, ei := range adj[i] {
			e := g.Edges[ei]
			w, ok := edgeWeight(g.Body, e, vl, p)
			if !ok {
				continue
			}
			if d := dist[i] + w; d > dist[e.To] {
				dist[e.To] = d
			}
		}
	}
	return dist
}

// adjacency indexes non-carried edges by From.
func adjacency(g *Graph) [][]int {
	adj := make([][]int, len(g.Body))
	for ei, e := range g.Edges {
		if !e.Carried {
			adj[e.From] = append(adj[e.From], ei)
		}
	}
	return adj
}

// CriticalPath computes the dependence bounds of a loop body at vector
// length vl. straight reports whether the body is straight-line (no
// branch except the final back branch, no internal entry) — the caller
// established this from the surrounding program; the per-pass bounds
// (IISerial, IICarried, CPL, TotalBound scaling) are only claimed then.
func CriticalPath(g *Graph, vl int, p Params, straight bool) CP {
	if vl < 1 {
		vl = 1
	}
	cp := CP{VL: vl, StraightLine: straight}
	n := len(g.Body)
	if n == 0 {
		return cp
	}
	adj := adjacency(g)

	est := func(atVL int) ([]int64, []int) {
		d := make([]int64, n)
		pred := make([]int, n)
		for i := range pred {
			pred[i] = -1
		}
		for i := 0; i < n; i++ {
			for _, ei := range adj[i] {
				e := g.Edges[ei]
				w, ok := edgeWeight(g.Body, e, atVL, p)
				if !ok {
					continue
				}
				if v := d[i] + w; v > d[e.To] {
					d[e.To] = v
					pred[e.To] = i
				}
			}
		}
		return d, pred
	}

	// One-pass critical path at the requested VL, with the realizing
	// chain for display.
	d, pred := est(vl)
	best := 0
	for i := 0; i < n; i++ {
		if L := d[i] + completion(g.Body[i], vl, p); L > cp.Len {
			cp.Len = L
			best = i
		}
	}
	for i := best; i >= 0; i = pred[i] {
		cp.Crit = append(cp.Crit, i)
	}
	for l, r := 0, len(cp.Crit)-1; l < r; l, r = l+1, r-1 {
		cp.Crit[l], cp.Crit[r] = cp.Crit[r], cp.Crit[l]
	}

	// Conservative VL=1 variants for TotalBound and the carried
	// recurrences (sound for every strip length).
	d1, _ := est(1)
	for i := 0; i < n; i++ {
		if L := d1[i] + completion(g.Body[i], 1, p); L > cp.len1 {
			cp.len1 = L
		}
	}

	for i := 0; i < n; i++ {
		cp.IISerial += asuCost(g.Body[i], p)
	}

	// Carried recurrences: for a carried edge u -> v, the next
	// iteration's v starts at least w after this iteration's u, and u
	// depends on v through the in-iteration path v => u; the cycle length
	// bounds the initiation interval.
	fromCache := map[int][]int64{}
	for _, e := range g.Edges {
		if !e.Carried {
			continue
		}
		w, ok := edgeWeight(g.Body, e, 1, p)
		if !ok {
			continue
		}
		var cyc int64
		if e.To == e.From {
			cyc = w
		} else {
			dist, okc := fromCache[e.To]
			if !okc {
				dist = longestFrom(g, adj, e.To, 1, p)
				fromCache[e.To] = dist
			}
			if dist[e.From] < 0 {
				continue // no in-iteration path back: no cycle
			}
			cyc = dist[e.From] + w
		}
		if cyc > cp.IICarried {
			cp.IICarried = cyc
		}
		cp.recs = append(cp.recs, recurrence{
			prefix: d1[e.From] + completion(g.Body[e.From], 1, p),
			cyc:    cyc,
		})
	}

	cp.II = cp.IISerial
	if cp.IICarried > cp.II {
		cp.II = cp.IICarried
	}
	if straight {
		cp.CPL = float64(cp.II) / float64(vl)
	}
	return cp
}

// TotalBound returns a provable lower bound on the total cycles of a run
// that executes the body at least strips times (each pass handling at
// most VL elements). For non-straight-line bodies only the single-pass
// critical path is claimed.
func (c CP) TotalBound(strips int64) int64 {
	if strips < 1 {
		strips = 1
	}
	b := c.len1
	if c.StraightLine {
		if v := strips * c.IISerial; v > b {
			b = v
		}
		for _, r := range c.recs {
			if v := r.prefix + (strips-1)*r.cyc; v > b {
				b = v
			}
		}
	}
	return b
}

// Analyze builds the dependence graph and critical path of a program's
// inner vectorized loop. ok is false when the program has no vectorized
// loop. Straight-lineness is established against the whole program: no
// branch inside the body except the final back branch, and no branch
// anywhere targeting the body's interior.
func Analyze(p *asm.Program, vl int, params Params) (CP, *Graph, bool) {
	loop, ok := asm.InnerVectorLoop(p)
	if !ok {
		return CP{}, nil, false
	}
	g := Build(loop.Body)
	return CriticalPath(g, vl, params, straightLine(p, loop)), g, true
}

// straightLine reports whether a loop body is branch-free except for its
// final back branch and is entered only at its head.
func straightLine(p *asm.Program, loop asm.Loop) bool {
	for i := loop.Start; i < loop.End-1; i++ {
		if p.Instrs[i].IsBranch() || p.Instrs[i].Op == isa.OpHalt {
			return false
		}
	}
	if !p.Instrs[loop.End-1].IsBranch() {
		return false
	}
	for i, in := range p.Instrs {
		if !in.IsBranch() || i == loop.End-1 {
			continue
		}
		for _, o := range in.Ops {
			if o.Kind != isa.KindLabel {
				continue
			}
			if t, ok := p.Labels[o.Label]; ok && t > loop.Start && t < loop.End {
				return false
			}
		}
	}
	return true
}
