package vm

import (
	"fmt"
	"math"

	"macs/internal/core"
	"macs/internal/isa"
	"macs/internal/mem"
)

// Timing is the C-240 timing model, the one implementation of the
// equations the paper's hierarchy explains t_p with: chime formation and
// gates, pipe tailgates and bubbles, chaining, the single memory port,
// stream-stall pricing (bank conflicts, refresh, shared-bank and
// multi-process contention), the per-lane stall attribution, and the
// final drain. It carries no architectural values: its caller executes
// each instruction's semantics and tells Timing what the instruction was —
// CPU does so with real values, the analytical fast tier with symbolic
// integers and no floating point at all — so both charge exactly the
// same cycles for the same schedule.
//
// The caller calls Fetch once per instruction, then the methods naming the
// instruction's timing class (ScalarOp, ScalarLoad, ScalarStore,
// TakenBranch, WaitScalar, Vector), and Finish when the program ends.
// Create with NewTiming.
type Timing struct {
	cfg Config

	clock          int64
	pipeFree       [4]int64 // indexed by isa.Pipe (PipeNone unused)
	pipeUsed       [4]bool
	vw             [isa.NumVRegs]vwriter
	sReady         [isa.NumSRegs]int64
	vectorPortFree int64
	scalarPortFree int64
	builder        *core.ChimeBuilder
	chimeID        int64
	chimeStart     int64
	chimeMemStall  int64
	chimeVL        int
	lastChimeStart int64
	prevGate       int64
	// prevGateSplit records whether the chime that set prevGate was closed
	// by the split rule, so gate waits behind it are attributed to the
	// split rather than ordinary chime serialization.
	prevGateSplit bool
	maxEvent      int64
	finished      bool

	bankCfg    mem.Config
	sharedBank BankReserver
	// stallTab memoizes vector-stream stall queries across streams and —
	// because Reset keeps it — across pooled runs. Nil when the config
	// models neither bank conflicts nor refresh, or when NaiveMemPath
	// keeps the reference walk in charge.
	stallTab *mem.StallTable

	stats Stats
	trace []TraceEvent
	ring  *traceRing
	// laneTime is each attribution lane's accounted frontier (see attr.go).
	laneTime [NumLanes]int64
}

// vwriter records the in-flight producer of a vector register for the
// chaining and completion constraints.
type vwriter struct {
	valid bool
	chime int64
	start int64
	y     int
	z     float64
	fin   int64
}

// NewTiming creates the timing state of one run under cfg.
func NewTiming(cfg Config) Timing {
	t := Timing{
		cfg:     cfg,
		builder: core.NewChimeBuilder(cfg.Rules),
		bankCfg: cfg.BankConfig(),
	}
	if (cfg.BankConflicts || cfg.RefreshStalls) && !cfg.NaiveMemPath {
		t.stallTab = mem.NewStallTable(t.bankCfg)
	}
	if !cfg.Trace && cfg.TraceRing > 0 {
		t.ring = newTraceRing(cfg.TraceRing)
	}
	return t
}

// Reset returns the timing state to time zero for the next run. The
// memoized stream-stall table survives — its answers depend only on the
// configuration, and keeping it warm is much of the point of pooling. Any
// shared bank model is detached.
func (t *Timing) Reset() {
	t.clock = 0
	t.pipeFree = [4]int64{}
	t.pipeUsed = [4]bool{}
	t.vw = [isa.NumVRegs]vwriter{}
	t.sReady = [isa.NumSRegs]int64{}
	t.vectorPortFree = 0
	t.scalarPortFree = 0
	t.builder.Reset()
	t.chimeID = 0
	t.chimeStart = 0
	t.chimeMemStall = 0
	t.chimeVL = 0
	t.lastChimeStart = 0
	t.prevGate = 0
	t.prevGateSplit = false
	t.maxEvent = 0
	t.finished = false
	t.sharedBank = nil
	t.stats = Stats{}
	// Returned trace slices must survive the next run: drop, don't truncate.
	t.trace = nil
	if t.ring != nil {
		t.ring.reset()
	}
	t.laneTime = [NumLanes]int64{}
}

// Stats returns statistics accumulated so far.
func (t *Timing) Stats() Stats { return t.stats }

// Clock returns the ASU's current time in cycles (advances as the
// program executes; used by the cluster scheduler).
func (t *Timing) Clock() int64 { return t.clock }

// Trace returns the recorded vector timing events (empty unless
// Config.Trace was set).
func (t *Timing) Trace() []TraceEvent { return t.trace }

// horizon is the time around which this CPU's next vector stream will
// enter the shared memory: its chime gate runs ahead of the ASU clock.
// The cluster scheduler orders CPUs by this so bank reservations happen
// in (approximately) global stream-time order.
func (t *Timing) horizon() int64 { return maxI64(t.clock, t.prevGate, t.chimeStart) }

// BankReserver is the timing interface of a shared memory system:
// reserving an n-element stream returns its stall cycles.
type BankReserver interface {
	Stream(start, base, strideBytes int64, n int) int64
}

// SetSharedBank attaches a shared memory bank model: vector memory
// streams then contend with other CPUs using the same model.
func (t *Timing) SetSharedBank(b BankReserver) { t.sharedBank = b }

// Fetch counts one instruction about to execute at pc against the run's
// budgets (Config.MaxInstrs, Config.MaxCycles).
func (t *Timing) Fetch(in isa.Instr, pc int) error {
	t.stats.Instrs++
	if t.stats.Instrs > t.cfg.MaxInstrs || t.clock > t.cfg.MaxCycles {
		return fmt.Errorf("vm: execution limit exceeded at pc=%d (%s)", pc, in)
	}
	if in.IsVector() {
		t.stats.VectorInstrs++
	} else {
		t.stats.ScalarInstrs++
	}
	return nil
}

// ScalarOp charges one ASU ALU operation, move, compare or no-op.
func (t *Timing) ScalarOp() { t.tickASU(int64(t.cfg.ScalarOpLat)) }

// TakenBranch charges the taken-branch penalty after the branch's own
// ScalarOp. A control transfer ends the forming chime: the ASU cannot
// keep filling a chime past a branch (the bound's per-iteration chime
// partition relies on this).
func (t *Timing) TakenBranch() {
	t.tickASU(int64(t.cfg.BranchPenalty))
	t.closeChime(false)
}

// WaitScalar delays the ASU until a vector-produced scalar is available.
func (t *Timing) WaitScalar(r isa.Reg) {
	if r.Class == isa.ClassS && t.sReady[r.N] > t.clock {
		t.clock = t.sReady[r.N]
		t.chargeStall(LaneASU, t.clock, StallChain)
	}
}

// ScalarLoad charges a scalar load into dst through the memory port.
func (t *Timing) ScalarLoad(dst isa.Reg) {
	t.scalarMem()
	if dst.Class == isa.ClassS {
		t.sReady[dst.N] = t.clock
	}
}

// ScalarStore charges a scalar store through the memory port; a caller
// storing an S register then waits for it with WaitScalar.
func (t *Timing) ScalarStore() { t.scalarMem() }

// scalarMem delays a scalar access while vector memory traffic holds the
// single CPU port, notifies the chime builder (split rule), and charges
// the access latency.
func (t *Timing) scalarMem() {
	start := t.clock
	if t.vectorPortFree > start {
		start = t.vectorPortFree
		t.stats.PortConflicts++
		t.chargeStall(LaneASU, start, StallPortArb)
	}
	if t.builder.NoteScalarMem() {
		t.closeChime(true)
	}
	lat := float64(t.cfg.ScalarLoadLat)
	if t.cfg.MemSlowdown > 1 {
		lat *= t.cfg.MemSlowdown
	}
	t.clock = start + int64(math.Ceil(lat))
	t.chargeIssue(LaneASU, t.clock)
	t.scalarPortFree = t.clock
}

// closeChime retires the forming chime: it fixes the gate time before
// which the next chime may not start streaming (the chime-synchronized
// serialization the paper's calibration loops observe) and bounds ASU
// runahead to one chime. split records whether the close was forced by
// the scalar-memory split rule.
func (t *Timing) closeChime(split bool) {
	cur, ok := t.builder.Flush()
	if !ok {
		t.chimeMemStall = 0
		return
	}
	t.stats.Chimes++
	cost := cur.ZMax * float64(t.chimeVL)
	if t.cfg.Rules.Bubbles {
		cost += float64(cur.SumB)
	}
	t.prevGate = t.chimeStart + int64(math.Ceil(cost)) + t.chimeMemStall
	t.prevGateSplit = split
	if t.prevGate > t.maxEvent {
		t.maxEvent = t.prevGate
	}
	t.lastChimeStart = t.chimeStart
	if t.clock < t.lastChimeStart {
		// The ASU cannot run more than one chime ahead of the VP.
		t.clock = t.lastChimeStart
		cause := StallChimeSync
		if split {
			cause = StallChimeSplit
		}
		t.chargeStall(LaneASU, t.clock, cause)
	}
	t.chimeID++
	t.chimeMemStall = 0
	t.chimeVL = 0
}

// Vector charges one vector instruction streaming vl elements under the
// chime model: its scalar operand waits and ASU dispatch, chime
// formation, the stream entry time with its attribution, and — for a
// load or store — the memory stalls of the stream from address ea at
// stride bytes (ea and stride are ignored otherwise). A zero-length
// instruction costs only its startup overhead.
func (t *Timing) Vector(in isa.Instr, vl int, ea, stride int64) error {
	vt, ok := isa.VectorTiming(in.Op)
	if !ok {
		return fmt.Errorf("no vector form for %s", in.Op)
	}
	// Vector instructions reading vector-produced scalars wait for them.
	for _, r := range in.Sources() {
		if r.Class == isa.ClassS {
			t.WaitScalar(r)
		}
	}
	t.clock += int64(t.cfg.DispatchLat)
	t.chargeIssue(LaneASU, t.clock)
	dispatchDone := t.clock

	if vl <= 0 {
		// A zero-length vector instruction is a no-op taking only its
		// startup overhead.
		t.clock += int64(vt.X)
		t.chargeStall(LaneASU, t.clock, StallStartup)
		return nil
	}

	if !t.builder.Fits(in) {
		t.closeChime(false)
	}
	newChime := t.builder.Empty()
	t.builder.Add(in)
	if vl > t.chimeVL {
		t.chimeVL = vl
	}

	// Stream entry time S, with each constraint kept as an attribution
	// checkpoint: after S is fixed, the pipe's wait [frontier, S] is
	// attributed chronologically across the checkpoints in ascending
	// order, so each cause is charged exactly the span it was binding
	// beyond all earlier constraints (no double counting, exact
	// conservation).
	type waitPoint struct {
		t     int64
		cause StallCause
	}
	var wbuf [6]waitPoint
	waits := wbuf[:0]

	// The tailgating bubble applies only when the instruction actually
	// follows another down the same pipe.
	s := dispatchDone + int64(vt.X)
	waits = append(waits,
		waitPoint{dispatchDone, StallScalar},
		waitPoint{s, StallStartup})
	pipe := in.Pipe()
	lane := int(pipe)
	pf := t.pipeFree[pipe]
	if t.cfg.Rules.Bubbles && t.pipeUsed[pipe] {
		pf += int64(vt.B)
		waits = append(waits, waitPoint{pf, StallBubble})
	}
	if pf > s {
		s = pf
	}
	t.pipeUsed[pipe] = true
	gateCause := StallChimeSync
	if t.prevGateSplit {
		gateCause = StallChimeSplit
	}
	if newChime {
		waits = append(waits, waitPoint{t.prevGate, gateCause})
		if t.prevGate > s {
			s = t.prevGate
		}
	} else {
		waits = append(waits, waitPoint{t.chimeStart, StallChimeSync})
		if t.chimeStart > s {
			s = t.chimeStart
		}
	}

	// Data dependences on vector registers.
	var chainT int64
	for _, r := range in.VectorReads() {
		w := t.vw[r.N]
		if !w.valid {
			continue
		}
		if w.chime == t.chimeID && t.cfg.Rules.Chaining {
			// Chaining: element k is consumed no earlier than the
			// producer writes it (Figure 2): S >= S_p + Y_p, plus a rate
			// correction when the producer streams slower.
			dep := w.start + int64(w.y)
			if w.z > vt.Z {
				dep += int64(math.Ceil((w.z - vt.Z) * float64(vl-1)))
			}
			if dep > chainT {
				chainT = dep
			}
			if dep > s {
				s = dep
			}
		} else if w.fin > s {
			// Cross-chime (or unchained) consumers wait for completion.
			chainT = w.fin
			s = w.fin
		}
	}
	if chainT > 0 {
		waits = append(waits, waitPoint{chainT, StallChain})
	}
	// Write-after-write needs no explicit constraint: streams are issued
	// in order and the pipe input constraint keeps a later writer a full
	// stream behind an earlier same-pipe writer, which is exactly how the
	// paper's calibration loops reuse one register across iterations.

	// Memory port and stream stalls.
	var st memStall
	var stall int64
	if in.IsMemory() {
		if t.scalarPortFree > s {
			t.stats.PortConflicts++
		}
		waits = append(waits, waitPoint{t.scalarPortFree, StallPortArb})
		if t.scalarPortFree > s {
			s = t.scalarPortFree
		}
		st = t.memStreamStall(s, ea, stride, vl)
		stall = st.total()
		t.chimeMemStall += stall
		t.stats.MemStalls += stall
	}

	// Attribute the pipe's pre-stream wait, then its streaming interval.
	// Stable insertion sort: waits holds at most six checkpoints, and the
	// sort.Slice closure forced the buffer to escape — a heap allocation
	// per vector instruction. Same comparison, same tie order.
	for i := 1; i < len(waits); i++ {
		for j := i; j > 0 && waits[j].t < waits[j-1].t; j-- {
			waits[j], waits[j-1] = waits[j-1], waits[j]
		}
	}
	for _, w := range waits {
		wt := w.t
		if wt > s {
			wt = s
		}
		t.chargeStall(lane, wt, w.cause)
	}

	if newChime {
		t.chimeStart = s
	}

	streamIn := int64(math.Ceil(vt.Z * float64(vl)))
	streamEnd := s + streamIn
	t.chargeIssue(lane, streamEnd)
	t.chargeStall(lane, streamEnd+st.bank, StallBankConflict)
	t.chargeStall(lane, streamEnd+st.bank+st.refresh, StallRefresh)
	t.chargeStall(lane, streamEnd+stall, StallContention)
	t.pipeFree[pipe] = s + streamIn + stall
	t.stats.PipeBusy[pipe] += streamIn + stall
	fin := s + int64(vt.Y) + streamIn + stall
	if fin > t.maxEvent {
		t.maxEvent = fin
	}
	if in.IsMemory() && fin > t.vectorPortFree {
		t.vectorPortFree = fin
	}
	if d, ok := in.VectorWrite(); ok {
		t.vw[d.N] = vwriter{valid: true, chime: t.chimeID, start: s, y: vt.Y, z: vt.Z, fin: fin}
	}
	if in.Op == isa.OpSum {
		// Reduction result lands in a scalar register when the stream
		// drains.
		if d, ok := in.Dst(); ok && d.Class == isa.ClassS {
			t.sReady[d.N] = fin
		}
	}

	if t.cfg.Trace || t.ring != nil {
		ev := TraceEvent{
			Instr:       in,
			Chime:       t.chimeID + 1,
			Dispatch:    dispatchDone,
			Start:       s,
			FirstResult: s + int64(vt.Y),
			Finish:      fin,
			Stall:       stall,
			VL:          vl,
		}
		if t.cfg.Trace {
			t.trace = append(t.trace, ev)
		} else {
			t.ring.push(ev)
		}
	}
	return nil
}

// memStall decomposes one vector stream's stall cycles by mechanism.
type memStall struct {
	bank       int64 // bank-busy conflicts (incl. shared-bank contention)
	refresh    int64 // refresh windows
	contention int64 // multi-process memory slowdown surcharge
}

func (m memStall) total() int64 { return m.bank + m.refresh + m.contention }

// memStreamStall returns the stall cycles a vector memory stream suffers
// from bank conflicts, refresh, and multi-process contention, decomposed
// by cause. In cluster mode the stream runs against the banks shared with
// the other CPUs (mutating their state) and the whole shared-bank wait is
// booked as bank conflict; standalone it probes zero-state bank timing —
// through the memoized stall table on the fast path, or a fresh naive
// bank walk when Config.NaiveMemPath keeps the reference implementation
// in charge (the two are bit-equivalent).
func (t *Timing) memStreamStall(start, base, stride int64, vl int) memStall {
	var st memStall
	if !t.cfg.BankConflicts {
		stride = isa.WordBytes // unit stride never conflicts
	}
	switch {
	case t.sharedBank != nil:
		st.bank = t.sharedBank.Stream(start, base, stride, vl)
	case t.stallTab != nil:
		st.bank, st.refresh = t.stallTab.StreamStallParts(start, base, stride, vl)
	case t.cfg.BankConflicts || t.cfg.RefreshStalls:
		cfg := t.bankCfg
		cfg.RefreshEnabled = t.cfg.RefreshStalls
		bm := mem.NewBankModel(cfg)
		st.bank, st.refresh = bm.StreamStallParts(start, base, stride, vl)
	}
	if t.cfg.MemSlowdown > 1 {
		st.contention = int64(math.Ceil((t.cfg.MemSlowdown - 1) * float64(vl)))
	}
	return st
}

// Finish closes the run: it retires the forming chime, fixes the cycle
// count, and tops every lane's ledger up to it. Calls after the first are
// no-ops.
func (t *Timing) Finish() {
	if t.finished {
		return
	}
	t.finished = true
	t.closeChime(false)
	t.stats.Cycles = maxI64(t.clock, t.maxEvent, t.prevGate)
	// Conservation: what remains unaccounted on a lane at this point is
	// drain — trailing time it spent with no work left (or, for an unused
	// pipe, the whole run).
	for lane := 0; lane < NumLanes; lane++ {
		t.chargeStall(lane, t.stats.Cycles, StallDrain)
	}
}

// chargeStall advances a lane's accounted frontier to at, attributing the
// advance to cause; it is a no-op when at is not ahead of the frontier,
// so overlapped waits are never double-counted.
func (t *Timing) chargeStall(lane int, at int64, cause StallCause) {
	if at > t.laneTime[lane] {
		t.stats.Attr.Lanes[lane].Stalls[cause] += at - t.laneTime[lane]
		t.laneTime[lane] = at
	}
}

// chargeIssue advances a lane's accounted frontier to at as productive
// issue cycles.
func (t *Timing) chargeIssue(lane int, at int64) {
	if at > t.laneTime[lane] {
		t.stats.Attr.Lanes[lane].Issue += at - t.laneTime[lane]
		t.laneTime[lane] = at
	}
}

// tickASU advances the ASU clock by n busy cycles and books them as issue.
func (t *Timing) tickASU(n int64) {
	t.clock += n
	t.chargeIssue(LaneASU, t.clock)
}

func maxI64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
