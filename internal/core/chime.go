package core

import (
	"macs/internal/isa"
)

// Rules configures the chime partitioning algorithm. The zero value
// disables everything; use DefaultRules for the C-240 behaviour.
type Rules struct {
	// Chaining allows dependent vector instructions to share a chime
	// (false models a Cray-2-style machine without chaining).
	Chaining bool
	// NoMemoryChaining restricts chaining so a consumer of a vector
	// load's result cannot share its chime (the Cray-1's limitation:
	// loads could not chain into arithmetic at arbitrary issue times).
	NoMemoryChaining bool
	// PairRule enforces at most two reads and one write per vector
	// register pair per chime.
	PairRule bool
	// SplitRule terminates a chime containing a vector memory access at a
	// scalar memory access instruction (single memory port).
	SplitRule bool
	// Bubbles charges each instruction its tailgating bubble B.
	Bubbles bool
	// Refresh applies the 1.02 factor to groups of four or more
	// successive chimes that each include a memory operation.
	Refresh bool
}

// DefaultRules returns the paper's C-240 chime rules, all enabled.
func DefaultRules() Rules {
	return Rules{Chaining: true, PairRule: true, SplitRule: true, Bubbles: true, Refresh: true}
}

// Chime is one group of concurrently executing vector instructions.
type Chime struct {
	// Members are the chime's instructions, filled by Partition (the
	// simulator's builder forms chimes without copying them).
	Members []isa.Instr
	// HasMem reports whether the chime includes a vector memory access.
	HasMem bool
	// ZMax is the largest per-element rate among members.
	ZMax float64
	// SumB is the total tailgating bubble of the members.
	SumB int
}

// Cost returns the chime's contribution in clock cycles for vector length
// vl (paper Eq. 13): Z_max*VL plus the sum of the member bubbles.
func (c Chime) Cost(vl int, rules Rules) float64 {
	cost := c.ZMax * float64(vl)
	if rules.Bubbles {
		cost += float64(c.SumB)
	}
	return cost
}

// ChimeBuilder incrementally forms chimes under a rule set. It is the
// engine behind Partition and is also used by the cycle-level simulator
// and the static checker, so the machine and the model share one
// implementation of the C-240 issue rules. It reads decoded rows
// (isa.Decode) and keeps the forming chime's resources in fixed arrays;
// the chimes it flushes carry no Members (Partition adds them).
type ChimeBuilder struct {
	rules      Rules
	cur        Chime
	n          int // members of the forming chime
	pipesUsed  [isa.PipeMul + 1]bool
	pairReads  [4]int
	pairWrites [4]int
	// writers holds, per vector register, the opcode of the forming
	// chime's member writing it; written marks the valid entries.
	writers   [isa.NumVRegs]isa.Op
	written   uint8
	scalarMem bool // scalar memory access seen since chime start
	closed    bool // chime terminated by the split rule
}

// NewChimeBuilder returns an empty builder for the given rules.
func NewChimeBuilder(rules Rules) *ChimeBuilder {
	return &ChimeBuilder{rules: rules}
}

func (b *ChimeBuilder) reset() { *b = ChimeBuilder{rules: b.rules} }

// Empty reports whether the forming chime has no members.
func (b *ChimeBuilder) Empty() bool { return b.n == 0 }

// Flush returns the formed chime (ok=false if empty) and resets the
// builder for the next chime.
func (b *ChimeBuilder) Flush() (Chime, bool) {
	c, ok := b.cur, !b.Empty()
	b.reset()
	return c, ok
}

// NoteScalarMem records a scalar memory access between vector
// instructions and reports whether it terminates the forming chime
// (which then must be flushed by the caller): a chime including a vector
// memory access cannot span a scalar memory access (paper §3.3).
func (b *ChimeBuilder) NoteScalarMem() (terminates bool) {
	if !b.rules.SplitRule {
		return false
	}
	if b.cur.HasMem {
		b.closed = true
		return true
	}
	b.scalarMem = true
	return false
}

// Fits reports whether a vector instruction can join the forming chime.
func (b *ChimeBuilder) Fits(r *isa.Row) bool {
	if b.Empty() {
		return true
	}
	if b.closed || b.pipesUsed[r.Pipe] || b.PortSplit(r) {
		return false
	}
	// With chaining on and loads chainable, a dependence never splits.
	if !b.rules.Chaining || b.rules.NoMemoryChaining {
		for _, v := range r.VectorReads() {
			if b.written&(1<<v) == 0 {
				continue
			}
			if !b.rules.Chaining {
				// Without chaining a dependent instruction cannot share a chime.
				return false
			}
			if b.writers[v] == isa.OpLd {
				// Cray-1-like: a load's consumer waits for the next chime.
				return false
			}
		}
	}
	_, split := b.PairSplit(r)
	return !split
}

// PortSplit reports whether the single memory port keeps a vector
// instruction out of the forming chime: the chime is terminated just
// before the later of a scalar and a vector memory reference (paper
// §3.3), so a vector memory access after a scalar one starts a new chime.
func (b *ChimeBuilder) PortSplit(r *isa.Row) bool {
	return b.rules.SplitRule && b.scalarMem && r.Mem
}

// PairSplit reports the first vector register pair on which a vector
// instruction would exceed the per-chime budget of two reads and one
// write (paper §3.3), keeping it out of the forming chime.
func (b *ChimeBuilder) PairSplit(r *isa.Row) (pair int, split bool) {
	if !b.rules.PairRule {
		return 0, false
	}
	reads, writes := b.pairReads, b.pairWrites
	accumulatePairRefs(r, &reads, &writes)
	for p := range reads {
		if reads[p] > isa.PairMaxReads || writes[p] > isa.PairMaxWrites {
			return p, true
		}
	}
	return 0, false
}

// Add places a vector instruction into the forming chime. The caller must
// have checked Fits (or flushed). An op without a Table 1 row contributes
// zero Z and B rather than derailing the build.
func (b *ChimeBuilder) Add(r *isa.Row) {
	b.n++
	b.pipesUsed[r.Pipe] = true
	if r.Mem {
		b.cur.HasMem = true
	}
	if r.Timing.Z > b.cur.ZMax {
		b.cur.ZMax = r.Timing.Z
	}
	b.cur.SumB += r.Timing.B
	accumulatePairRefs(r, &b.pairReads, &b.pairWrites)
	if w, ok := r.VectorWrite(); ok {
		b.writers[w] = r.Op
		b.written |= 1 << w
	}
}

func accumulatePairRefs(r *isa.Row, reads, writes *[4]int) {
	for _, v := range r.VectorReads() {
		reads[isa.V(int(v)).Pair()]++
	}
	if w, ok := r.VectorWrite(); ok {
		writes[isa.V(w).Pair()]++
	}
}

// Partition groups the vector instructions of an inner-loop body into
// chimes according to the C-240 issue rules (paper §3.3):
//
//   - at most one vector operation per function pipe per chime;
//   - at most two reads and one write per vector register pair per chime;
//   - a chime including a vector memory access cannot span a scalar
//     memory access instruction;
//   - without chaining, dependent instructions cannot share a chime.
//
// Scalar instructions in the body influence partitioning (the split rule)
// but do not become chime members. Vector instructions the model cannot
// place — an op without a Table 1 row, or one isa.Decode rejects — are
// skipped; the static checker refuses programs holding either.
func Partition(body []isa.Instr, rules Rules) []Chime {
	return partition(body, rules, nil)
}

// partition is Partition with t_MACSD's bank-limited Z floor: each
// vector memory member whose stride ann records raises its chime's ZMax
// to that stride's bank-limited rate (BankLimitedZ). A nil ann floors
// nothing, which is Partition.
func partition(body []isa.Instr, rules Rules, ann StrideAnnotation) []Chime {
	var chimes []Chime
	var members []isa.Instr
	b := NewChimeBuilder(rules)
	// The bank-limited Z of the forming chime's annotated memory members.
	var zBank float64
	flush := func() {
		if c, ok := b.Flush(); ok {
			if zBank > c.ZMax {
				c.ZMax = zBank
			}
			c.Members = members
			chimes = append(chimes, c)
		}
		members, zBank = nil, 0
	}
	for i := range body {
		in := &body[i]
		if !in.IsVector() {
			if in.IsMemory() && b.NoteScalarMem() {
				flush()
			}
			continue
		}
		r, err := isa.Decode(in)
		if err != nil || !r.Timed {
			continue
		}
		if !b.Fits(&r) {
			flush()
		}
		if s, ok := ann[i]; ok && r.Mem {
			zBank = max(zBank, BankLimitedZ(s, isa.MemBanks, isa.BankCycle))
		}
		b.Add(&r)
		if members == nil {
			// One allocation per chime: it holds at most one member per pipe.
			members = make([]isa.Instr, 0, isa.PipeMul)
		}
		members = append(members, *in)
	}
	flush()
	return chimes
}
