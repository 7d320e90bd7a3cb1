// Stall attribution (paper §4.4, made measurable): during simulation every
// lane of the machine — the ASU plus the three VP function pipes — has each
// cycle of the run classified as either issue (the lane doing its own work)
// or one of a fixed taxonomy of stall causes. The ledger is exact by
// construction: each lane's accounted frontier only ever advances, every
// advance is attributed to exactly one bucket, and at the end of the run
// each lane is topped up to the final cycle count with StallDrain. The
// invariant Issue + sum(Stalls) == Stats.Cycles holds per lane
// (Attribution.Conserved), which is what makes the attribution trustworthy
// as an explanation of where the gap between bound and measurement went.
package vm

import (
	"encoding/json"
	"fmt"

	"macs/internal/isa"
)

// StallCause classifies one non-issue cycle of a machine lane.
//
// macsvet:exhaustive
type StallCause int

// The attribution taxonomy. Pipe lanes use all of them; the ASU lane uses
// the dependence/serialization causes (chain wait, chime sync/split, port
// arbitration) plus drain.
const (
	// StallStartup is vector startup overhead: the X cycles before a
	// stream enters its pipe (and, for a zero-length vector instruction,
	// the whole instruction).
	StallStartup StallCause = iota
	// StallBubble is the tailgating bubble B between successive streams
	// down one pipe (the handshaking restart penalty).
	StallBubble
	// StallChain is an operand-dependence wait: a consumer waiting for a
	// producer's first element (chaining) or completion (cross-chime), or
	// the ASU waiting for a vector-produced scalar.
	StallChain
	// StallChimeSync is time spent waiting behind the previous chime's
	// gate — the chime-synchronized serialization of the VP.
	StallChimeSync
	// StallChimeSplit is a gate wait behind a chime that was closed early
	// by the scalar-memory split rule (the LFK8 signature).
	StallChimeSplit
	// StallBankConflict is bank-busy wait inside a vector memory stream
	// (including shared-bank contention in cluster mode).
	StallBankConflict
	// StallRefresh is wait on memory refresh windows.
	StallRefresh
	// StallContention is the multi-process memory slowdown surcharge
	// (Config.MemSlowdown > 1).
	StallContention
	// StallPortArb is CPU memory-port arbitration: scalar and vector
	// accesses serializing on the single port.
	StallPortArb
	// StallScalar is scalar (ASU) work a pipe sat idle behind before its
	// next vector instruction was dispatched.
	StallScalar
	// StallDrain is lane idle time with no work pending: trailing drain
	// at the end of the run, or a pipe the program never exercises.
	StallDrain

	// NumStallCauses is the size of the taxonomy.
	NumStallCauses
)

var stallNames = [NumStallCauses]string{
	"startup", "bubble", "chain-wait", "chime-sync", "chime-split",
	"bank-conflict", "refresh", "contention", "port-arb", "scalar", "drain",
}

func (c StallCause) String() string {
	if c < 0 || c >= NumStallCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return stallNames[c]
}

// StallCauses lists the taxonomy in declaration order.
func StallCauses() []StallCause {
	out := make([]StallCause, NumStallCauses)
	for i := range out {
		out[i] = StallCause(i)
	}
	return out
}

// Attribution lanes: index 0 is the ASU; indices 1..3 are the VP pipes and
// share isa.Pipe numbering (load/store, add, multiply).
const (
	LaneASU  = 0
	NumLanes = 4
)

// LaneName returns the display name of an attribution lane.
func LaneName(lane int) string {
	if lane == LaneASU {
		return "asu"
	}
	return isa.Pipe(lane).String()
}

// LaneAttribution is one lane's cycle ledger.
type LaneAttribution struct {
	// Issue counts cycles the lane spent doing its own work: streaming
	// elements (pipes) or executing scalar instructions (ASU).
	Issue int64
	// Stalls counts non-issue cycles by cause.
	Stalls [NumStallCauses]int64
}

// Total returns all accounted cycles of the lane (== Stats.Cycles when the
// ledger is conserved).
func (l LaneAttribution) Total() int64 {
	t := l.Issue
	for _, v := range l.Stalls {
		t += v
	}
	return t
}

// StallTotal returns the lane's non-issue cycles.
func (l LaneAttribution) StallTotal() int64 { return l.Total() - l.Issue }

// Attribution is the full per-lane ledger of one run.
type Attribution struct {
	Lanes [NumLanes]LaneAttribution
}

// Empty reports whether nothing has been attributed.
func (a Attribution) Empty() bool {
	for _, l := range a.Lanes {
		if l.Total() != 0 {
			return false
		}
	}
	return true
}

// Cause sums one stall cause across all lanes.
func (a Attribution) Cause(c StallCause) int64 {
	var sum int64
	for _, l := range a.Lanes {
		sum += l.Stalls[c]
	}
	return sum
}

// IssueCycles sums issue cycles across all lanes.
func (a Attribution) IssueCycles() int64 {
	var sum int64
	for _, l := range a.Lanes {
		sum += l.Issue
	}
	return sum
}

// Totals returns the lane-summed ledger keyed by cause name, with issue
// cycles under "issue". Zero buckets are omitted.
func (a Attribution) Totals() map[string]int64 {
	out := make(map[string]int64, NumStallCauses+1)
	if v := a.IssueCycles(); v != 0 {
		out["issue"] = v
	}
	for c := StallCause(0); c < NumStallCauses; c++ {
		if v := a.Cause(c); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// Share returns a cause's fraction of all accounted lane-cycles
// (NumLanes × Stats.Cycles for a conserved ledger).
func (a Attribution) Share(c StallCause) float64 {
	var total int64
	for _, l := range a.Lanes {
		total += l.Total()
	}
	if total == 0 {
		return 0
	}
	return float64(a.Cause(c)) / float64(total)
}

// Conserved verifies the ledger invariant: every lane's issue plus
// attributed stall cycles must exactly equal the run's total cycles. It
// returns nil when the ledger balances and a descriptive error naming the
// first unbalanced lane otherwise.
func (a Attribution) Conserved(totalCycles int64) error {
	for lane := 0; lane < NumLanes; lane++ {
		if got := a.Lanes[lane].Total(); got != totalCycles {
			return fmt.Errorf("vm: attribution not conserved on lane %s: issue %d + stalls %d = %d, want %d cycles",
				LaneName(lane), a.Lanes[lane].Issue, a.Lanes[lane].StallTotal(), got, totalCycles)
		}
	}
	return nil
}

// laneAttrJSON is the wire shape of one lane: named buckets instead of a
// positional array, so the JSON survives taxonomy reordering.
type laneAttrJSON struct {
	Issue  int64            `json:"issue"`
	Stalls map[string]int64 `json:"stalls,omitempty"`
}

// MarshalJSON renders the ledger as an object keyed by lane name with
// named stall buckets (zero buckets omitted).
func (a Attribution) MarshalJSON() ([]byte, error) {
	out := make(map[string]laneAttrJSON, NumLanes)
	for lane := 0; lane < NumLanes; lane++ {
		l := a.Lanes[lane]
		j := laneAttrJSON{Issue: l.Issue}
		for c, v := range l.Stalls {
			if v != 0 {
				if j.Stalls == nil {
					j.Stalls = make(map[string]int64)
				}
				j.Stalls[StallCause(c).String()] = v
			}
		}
		out[LaneName(lane)] = j
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (a *Attribution) UnmarshalJSON(data []byte) error {
	var in map[string]laneAttrJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*a = Attribution{}
	for lane := 0; lane < NumLanes; lane++ {
		j, ok := in[LaneName(lane)]
		if !ok {
			continue
		}
		a.Lanes[lane].Issue = j.Issue
		for name, v := range j.Stalls {
			c, ok := stallByName(name)
			if !ok {
				return fmt.Errorf("vm: unknown stall cause %q", name)
			}
			a.Lanes[lane].Stalls[c] = v
		}
	}
	return nil
}

func stallByName(name string) (StallCause, bool) {
	for c, n := range stallNames {
		if n == name {
			return StallCause(c), true
		}
	}
	return 0, false
}
