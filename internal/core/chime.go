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
// engine behind Partition and is also used by the cycle-level simulator,
// so the machine and the model share one implementation of the C-240
// issue rules.
type ChimeBuilder struct {
	rules      Rules
	cur        Chime
	pipesUsed  map[isa.Pipe]bool
	pairReads  [4]int
	pairWrites [4]int
	writers    map[isa.Reg]isa.Op // vector registers written by current chime, by opcode
	scalarMem  bool               // scalar memory access seen since chime start
	closed     bool               // chime terminated by the split rule
}

// NewChimeBuilder returns an empty builder for the given rules.
func NewChimeBuilder(rules Rules) *ChimeBuilder {
	b := &ChimeBuilder{rules: rules}
	b.reset()
	return b
}

func (b *ChimeBuilder) reset() {
	b.cur = Chime{}
	// Reuse the maps: reset runs once per flushed chime, and reallocating
	// them is measurable churn in the simulator's hot loop.
	if b.pipesUsed == nil {
		b.pipesUsed = make(map[isa.Pipe]bool)
		b.writers = make(map[isa.Reg]isa.Op)
	} else {
		clear(b.pipesUsed)
		clear(b.writers)
	}
	b.pairReads = [4]int{}
	b.pairWrites = [4]int{}
	b.scalarMem = false
	b.closed = false
}

// Reset discards any forming chime and returns the builder to its initial
// state, reusing its allocations (for pooled simulator reuse).
func (b *ChimeBuilder) Reset() { b.reset() }

// Empty reports whether the forming chime has no members.
func (b *ChimeBuilder) Empty() bool { return len(b.cur.Members) == 0 }

// Current returns the chime formed so far.
func (b *ChimeBuilder) Current() Chime { return b.cur }

// Flush returns the formed chime (ok=false if empty) and resets the
// builder for the next chime.
func (b *ChimeBuilder) Flush() (Chime, bool) {
	c, ok := b.cur, !b.Empty()
	b.reset()
	return c, ok
}

// InChimeWriter reports whether the named vector register is written by a
// member of the forming chime (a chaining opportunity).
func (b *ChimeBuilder) InChimeWriter(r isa.Reg) bool {
	_, ok := b.writers[r]
	return ok
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
func (b *ChimeBuilder) Fits(in isa.Instr) bool {
	if b.Empty() {
		return true
	}
	if b.closed || b.pipesUsed[in.Pipe()] || b.PortSplit(in) {
		return false
	}
	// With chaining on and loads chainable, a dependence never splits.
	if !b.rules.Chaining || b.rules.NoMemoryChaining {
		for _, r := range in.VectorReads() {
			w, written := b.writers[r]
			if !written {
				continue
			}
			if !b.rules.Chaining {
				// Without chaining a dependent instruction cannot share a chime.
				return false
			}
			if w == isa.OpLd {
				// Cray-1-like: a load's consumer waits for the next chime.
				return false
			}
		}
	}
	_, split := b.PairSplit(in)
	return !split
}

// PortSplit reports whether the single memory port keeps a vector
// instruction out of the forming chime: the chime is terminated just
// before the later of a scalar and a vector memory reference (paper
// §3.3), so a vector memory access after a scalar one starts a new chime.
func (b *ChimeBuilder) PortSplit(in isa.Instr) bool {
	return b.rules.SplitRule && b.scalarMem && in.IsMemory()
}

// PairSplit reports the first vector register pair on which a vector
// instruction would exceed the per-chime budget of two reads and one
// write (paper §3.3), keeping it out of the forming chime.
func (b *ChimeBuilder) PairSplit(in isa.Instr) (pair int, split bool) {
	if !b.rules.PairRule {
		return 0, false
	}
	reads, writes := b.pairReads, b.pairWrites
	accumulatePairRefs(in, &reads, &writes)
	for p := range reads {
		if reads[p] > isa.PairMaxReads || writes[p] > isa.PairMaxWrites {
			return p, true
		}
	}
	return 0, false
}

// Add places a vector instruction into the forming chime. The caller must
// have checked Fits (or flushed).
func (b *ChimeBuilder) Add(in isa.Instr) {
	b.cur.Members = append(b.cur.Members, in)
	b.pipesUsed[in.Pipe()] = true
	if in.IsMemory() {
		b.cur.HasMem = true
	}
	// Partition only feeds ops with Table 1 timings; an op without one
	// contributes zero Z and B rather than derailing the build.
	t, _ := isa.VectorTiming(in.Op)
	if t.Z > b.cur.ZMax {
		b.cur.ZMax = t.Z
	}
	b.cur.SumB += t.B
	accumulatePairRefs(in, &b.pairReads, &b.pairWrites)
	if w, ok := in.VectorWrite(); ok {
		b.writers[w] = in.Op
	}
}

func accumulatePairRefs(in isa.Instr, reads, writes *[4]int) {
	for _, r := range in.VectorReads() {
		reads[r.Pair()]++
	}
	if w, ok := in.VectorWrite(); ok {
		writes[w.Pair()]++
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
// but do not become chime members.
func Partition(body []isa.Instr, rules Rules) []Chime {
	var chimes []Chime
	b := NewChimeBuilder(rules)
	for _, in := range body {
		if !in.IsVector() {
			if in.IsMemory() {
				b.NoteScalarMem()
			}
			continue
		}
		if _, ok := isa.VectorTiming(in.Op); !ok {
			continue
		}
		if !b.Fits(in) {
			if c, ok := b.Flush(); ok {
				chimes = append(chimes, c)
			}
		}
		b.Add(in)
	}
	if c, ok := b.Flush(); ok {
		chimes = append(chimes, c)
	}
	return chimes
}
