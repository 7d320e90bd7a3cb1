// Package depgraph is the static dependence and value-range analyzer over
// compiled asm programs. It complements the MACS resource bounds (which
// say how fast the machine could stream the work) with two kinds of purely
// static facts:
//
//   - a register/memory data-dependence DAG over the inner loop body —
//     true (read-after-write), anti (write-after-read) and output
//     (write-after-write) edges, plus the loop-carried edges that cross
//     the strip-mine back branch — from which the critical-path bound
//     t_CP is computed with chaining-aware edge weights taken from the
//     same Table 1 timings the simulator uses (cp.go);
//   - an interval abstract interpretation over the whole program
//     (const-prop generalized to value ranges on scalar registers, VL,
//     VS and the T flag, with branch-condition refinement and widening,
//     plus a must-defined bit per register) that proves bank-conflict
//     freedom of vector streams, bounds data-dependent trip counts, and
//     is the static checker's only dataflow: its use-before-definition,
//     reachability and memory-bounds findings read it (interval.go,
//     facts.go).
//
// Every bound here is a provable lower bound on machine time: edge
// weights deliberately under-approximate the enforced stall so that
// t_CP <= measured cycles holds on every program (the depgraph fuzzer and
// the LFK golden tests pin this).
package depgraph

import (
	"fmt"

	"macs/internal/isa"
)

// EdgeKind classifies one dependence edge. The critical-path solver must
// handle every kind explicitly — cmd/macsvet's depgraph rule checks that
// the edgeWeight switch names each member.
//
// macsvet:exhaustive
type EdgeKind int

const (
	// EdgeTrue is a read-after-write (flow) dependence.
	EdgeTrue EdgeKind = iota
	// EdgeAnti is a write-after-read dependence.
	EdgeAnti
	// EdgeOutput is a write-after-write dependence.
	EdgeOutput

	// NumEdgeKinds is the size of the taxonomy.
	NumEdgeKinds
)

var edgeKindNames = [NumEdgeKinds]string{"true", "anti", "output"}

func (k EdgeKind) String() string {
	if k < 0 || k >= NumEdgeKinds {
		return fmt.Sprintf("edgekind(%d)", int(k))
	}
	return edgeKindNames[k]
}

// Edge is one dependence between two instructions of a loop body.
type Edge struct {
	// From and To index the body; a carried edge's To executes one
	// iteration after its From.
	From, To int
	Kind     EdgeKind
	// Carried marks a dependence across the loop back branch.
	Carried bool
	// Reg is the register carrying the dependence (zero value for the
	// scalar T flag and for memory-symbol edges).
	Reg isa.Reg
	// Res names the depended-on resource for display: a register, "T",
	// or a data symbol.
	Res string
	// Mem marks a memory-symbol dependence (store/load on the same
	// .data symbol).
	Mem bool
}

func (e Edge) String() string {
	c := ""
	if e.Carried {
		c = " carried"
	}
	return fmt.Sprintf("%d -%s(%s)%s-> %d", e.From, e.Kind, e.Res, c, e.To)
}

// Graph is the dependence DAG of one loop body. Non-carried edges always
// point forward in program order (the body is straight-line), so the
// graph restricted to them is acyclic by construction; Acyclic verifies
// the invariant for the fuzzer.
type Graph struct {
	Body  []isa.Instr
	Edges []Edge
	// rows is Body decoded (isa.Decode), read by the critical-path
	// weights.
	rows []isa.Row
}

// Register slots for dependence tracking: a and s registers, VL, VS, the
// scalar comparison flag T (set by compares, read by jbrs), and the v
// registers last, since the interval analysis keeps no range for them.
const (
	gSlotA  = 0
	gSlotS  = gSlotA + isa.NumARegs
	gSlotVL = gSlotS + isa.NumSRegs
	gSlotVS = gSlotVL + 1
	gSlotT  = gSlotVS + 1
	gSlotV  = gSlotT + 1
	numG    = gSlotV + isa.NumVRegs
)

func gSlot(r isa.Reg) int {
	switch r.Class {
	case isa.ClassA:
		if r.N >= 0 && r.N < isa.NumARegs {
			return gSlotA + r.N
		}
	case isa.ClassS:
		if r.N >= 0 && r.N < isa.NumSRegs {
			return gSlotS + r.N
		}
	case isa.ClassV:
		if r.N >= 0 && r.N < isa.NumVRegs {
			return gSlotV + r.N
		}
	case isa.ClassVL:
		return gSlotVL
	case isa.ClassVS:
		return gSlotVS
	}
	return -1
}

func gSlotName(s int) string {
	switch {
	case s >= gSlotA && s < gSlotS:
		return fmt.Sprintf("a%d", s-gSlotA)
	case s >= gSlotS && s < gSlotVL:
		return fmt.Sprintf("s%d", s-gSlotS)
	case s >= gSlotV && s < numG:
		return fmt.Sprintf("v%d", s-gSlotV)
	case s == gSlotVL:
		return "vl"
	case s == gSlotVS:
		return "vs"
	case s == gSlotT:
		return "T"
	}
	return fmt.Sprintf("slot%d", s)
}

func gSlotReg(s int) isa.Reg {
	switch {
	case s >= gSlotA && s < gSlotS:
		return isa.Reg{Class: isa.ClassA, N: s - gSlotA}
	case s >= gSlotS && s < gSlotVL:
		return isa.Reg{Class: isa.ClassS, N: s - gSlotS}
	case s >= gSlotV && s < numG:
		return isa.Reg{Class: isa.ClassV, N: s - gSlotV}
	case s == gSlotVL:
		return isa.VL()
	case s == gSlotVS:
		return isa.VS()
	}
	return isa.Reg{} // T and memory edges carry the zero register
}

// useSlots appends to out the register slots an instruction reads: the
// slots of its decoded read set (isa.Row.Reads), and the T flag for
// conditional branches.
func useSlots(out []int, r *isa.Row) []int {
	for _, reg := range r.Reads() {
		if s := gSlot(reg); s >= 0 {
			out = append(out, s)
		}
	}
	if r.Op == isa.OpJbrs {
		out = append(out, gSlotT)
	}
	return out
}

// defSlots appends to out the register slots an instruction writes: its
// destination, and the T flag for compares.
func defSlots(out []int, r *isa.Row) []int {
	if !r.Dst.IsZero() {
		if s := gSlot(r.Dst); s >= 0 {
			out = append(out, s)
		}
	}
	if isCompare(r.Op) {
		out = append(out, gSlotT)
	}
	return out
}

func isCompare(op isa.Op) bool {
	switch op {
	case isa.OpLe, isa.OpLt, isa.OpGt, isa.OpGe, isa.OpEq, isa.OpNe:
		return true
	}
	return false
}

// memSym returns the data symbol a memory instruction touches, or "" for
// symbolless (pure register-addressed) accesses, which the builder
// conservatively ignores: a missed edge can only lower the critical-path
// bound, never raise it above the machine.
func memSym(in isa.Instr) (sym string, ok bool) {
	if !in.IsMemory() {
		return "", false
	}
	for _, o := range in.Ops {
		if o.Kind == isa.KindMem {
			return o.Sym, o.Sym != ""
		}
	}
	return "", false
}

// Build constructs the dependence graph of one loop body. The body is
// walked twice: the first pass emits intra-iteration edges, the second
// replays the body against the first pass's end state to emit the
// loop-carried edges (stopping per resource at its first redefinition).
// Memory dependences are tracked at data-symbol granularity. It fails
// when an instruction does not decode (isa.Decode), rather than build
// edges from a partial read set.
func Build(body []isa.Instr) (*Graph, error) {
	g := &Graph{Body: body, rows: make([]isa.Row, len(body))}
	for i := range body {
		r, err := isa.Decode(&body[i])
		if err != nil {
			return nil, fmt.Errorf("depgraph: instr %d (%s): %w", i, &body[i], err)
		}
		g.rows[i] = r
	}
	var slots []int

	lastDef := make([]int, numG)
	for i := range lastDef {
		lastDef[i] = -1
	}
	reads := make([][]int, numG)
	lastStore := map[string]int{}
	loads := map[string][]int{}

	emit := func(from, to int, kind EdgeKind, slot int, sym string, carried bool) {
		e := Edge{From: from, To: to, Kind: kind, Carried: carried}
		if sym != "" {
			e.Res, e.Mem = sym, true
		} else {
			e.Res, e.Reg = gSlotName(slot), gSlotReg(slot)
		}
		g.Edges = append(g.Edges, e)
	}

	// Pass 1: intra-iteration edges.
	for i, in := range body {
		row := &g.rows[i]
		slots = useSlots(slots[:0], row)
		for _, u := range slots {
			if d := lastDef[u]; d >= 0 {
				emit(d, i, EdgeTrue, u, "", false)
			}
			reads[u] = append(reads[u], i)
		}
		if sym, ok := memSym(in); ok {
			if in.IsStore() {
				if d, ok := lastStore[sym]; ok {
					emit(d, i, EdgeOutput, 0, sym, false)
				}
				for _, r := range loads[sym] {
					if r != i {
						emit(r, i, EdgeAnti, 0, sym, false)
					}
				}
				lastStore[sym] = i
				loads[sym] = loads[sym][:0]
			} else {
				if d, ok := lastStore[sym]; ok {
					emit(d, i, EdgeTrue, 0, sym, false)
				}
				loads[sym] = append(loads[sym], i)
			}
		}
		slots = defSlots(slots[:0], row)
		for _, d := range slots {
			for _, r := range reads[d] {
				if r != i {
					emit(r, i, EdgeAnti, d, "", false)
				}
			}
			if p := lastDef[d]; p >= 0 && p != i {
				emit(p, i, EdgeOutput, d, "", false)
			}
			lastDef[d] = i
			reads[d] = reads[d][:0]
		}
	}

	// Pass 2: loop-carried edges against the pass-1 end state. A slot
	// stops producing carried edges at its first redefinition in this
	// pass (the next iteration's own value takes over from there).
	dead := make([]bool, numG)
	deadSym := map[string]bool{}
	for i, in := range body {
		row := &g.rows[i]
		slots = useSlots(slots[:0], row)
		for _, u := range slots {
			if dead[u] {
				continue
			}
			if d := lastDef[u]; d >= 0 {
				emit(d, i, EdgeTrue, u, "", true)
			}
		}
		if sym, ok := memSym(in); ok && !deadSym[sym] {
			if in.IsStore() {
				if d, ok := lastStore[sym]; ok {
					emit(d, i, EdgeOutput, 0, sym, true)
				}
				for _, r := range loads[sym] {
					emit(r, i, EdgeAnti, 0, sym, true)
				}
				deadSym[sym] = true
			} else if d, ok := lastStore[sym]; ok {
				emit(d, i, EdgeTrue, 0, sym, true)
			}
		}
		slots = defSlots(slots[:0], row)
		for _, d := range slots {
			if dead[d] {
				continue
			}
			for _, r := range reads[d] {
				emit(r, i, EdgeAnti, d, "", true)
			}
			if p := lastDef[d]; p >= 0 {
				emit(p, i, EdgeOutput, d, "", true)
			}
			dead[d] = true
		}
	}
	return g, nil
}

// Carried counts the loop-carried edges.
func (g *Graph) Carried() int {
	n := 0
	for _, e := range g.Edges {
		if e.Carried {
			n++
		}
	}
	return n
}

// KindCount counts edges of one kind.
func (g *Graph) KindCount(k EdgeKind) int {
	n := 0
	for _, e := range g.Edges {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Acyclic reports whether the graph restricted to non-carried edges is a
// DAG. It holds by construction (intra-iteration edges point forward in
// program order); the fuzzer asserts it on every generated program.
func (g *Graph) Acyclic() bool {
	for _, e := range g.Edges {
		if !e.Carried && e.From >= e.To {
			return false
		}
	}
	return true
}
