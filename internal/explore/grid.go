// Package explore is the design-space exploration engine: it sweeps a
// declared grid of machine variants over a kernel and ranks the machines,
// attaching full per-lane stall attribution to the best of them.
//
// The paper models one machine (the Convex C-240), but the simulator has
// always been fully parameterized; with the machine description split out
// as vm.Machine, a sweep varies Machines while compiling the kernel
// exactly once. Evaluation is two-stage: the analytical fast tier
// (internal/fasttier) scores every grid point — it runs the simulator's
// own timing model, so for the non-data-dependent programs it admits its
// cycle count is the simulator's and the ranking it induces is the true
// ranking; a first sight costs about one simulation per point — and
// exact simulation runs only on the top-K survivors, explaining *why*
// each one wins or loses. Programs the fast tier rejects
// (ErrDataDependent) fall back to simulating every point: correctness
// over pruning.
package explore

import (
	"fmt"
	"math"
	"sort"

	"macs/internal/vm"
)

// Axis is one swept parameter: a name from Params and the values it
// takes. Values are declared as float64 so one axis type covers integer
// knobs (banks), real knobs (mem-slowdown) and boolean knobs (0/1);
// integer and boolean parameters reject non-integral values.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// Grid declares a parameter sweep: a base machine and the axes varied
// over it. The grid's points are the cartesian product of the axis
// values applied to the base; a grid with no axes has exactly one point,
// the base machine itself.
type Grid struct {
	// Base is the machine every point starts from; the zero value takes
	// vm.DefaultMachine (the C-240).
	Base vm.Machine `json:"base"`
	Axes []Axis     `json:"axes,omitempty"`
}

// paramKind classifies a parameter's value domain.
type paramKind int

const (
	kindInt paramKind = iota
	kindFloat
	kindBool
)

// param is one settable machine knob.
type param struct {
	kind  paramKind
	doc   string
	apply func(*vm.Machine, float64)
}

// params is the registry of sweepable machine knobs. Boolean knobs take
// 0 or 1; integer knobs must be positive integers.
var params = map[string]param{
	"banks": {kindInt, "interleaved memory bank count",
		func(m *vm.Machine, v float64) { m.Banks = int(v) }},
	"bank-cycle": {kindInt, "bank busy cycles per access",
		func(m *vm.Machine, v float64) { m.BankCycle = int(v) }},
	"refresh-period": {kindInt, "cycles between memory refreshes",
		func(m *vm.Machine, v float64) { m.RefreshPeriod = int(v) }},
	"refresh-len": {kindInt, "cycles each refresh lasts",
		func(m *vm.Machine, v float64) { m.RefreshLen = int(v) }},
	"vlmax": {kindInt, "hardware vector length",
		func(m *vm.Machine, v float64) { m.VLMax = int(v) }},
	"mem-slowdown": {kindFloat, "memory contention multiplier",
		func(m *vm.Machine, v float64) { m.MemSlowdown = v }},
	"scalar-load-lat": {kindInt, "scalar load/store latency",
		func(m *vm.Machine, v float64) { m.ScalarLoadLat = int(v) }},
	"scalar-op-lat": {kindInt, "scalar ALU latency",
		func(m *vm.Machine, v float64) { m.ScalarOpLat = int(v) }},
	"branch-penalty": {kindInt, "taken-branch penalty cycles",
		func(m *vm.Machine, v float64) { m.BranchPenalty = int(v) }},
	"dispatch-lat": {kindInt, "vector dispatch cycles",
		func(m *vm.Machine, v float64) { m.DispatchLat = int(v) }},
	"bank-conflicts": {kindBool, "model bank-busy stalls",
		func(m *vm.Machine, v float64) { m.BankConflicts = v != 0 }},
	"refresh-stalls": {kindBool, "model refresh stalls",
		func(m *vm.Machine, v float64) { m.RefreshStalls = v != 0 }},
	"chaining": {kindBool, "allow dependent instructions to share a chime",
		func(m *vm.Machine, v float64) { m.Rules.Chaining = v != 0 }},
	"no-memory-chaining": {kindBool, "forbid chaining out of vector loads (Cray-1-like)",
		func(m *vm.Machine, v float64) { m.Rules.NoMemoryChaining = v != 0 }},
	"pair-rule": {kindBool, "enforce the register pair rule",
		func(m *vm.Machine, v float64) { m.Rules.PairRule = v != 0 }},
	"split-rule": {kindBool, "split chimes at scalar memory accesses",
		func(m *vm.Machine, v float64) { m.Rules.SplitRule = v != 0 }},
	"bubbles": {kindBool, "charge tailgating bubbles",
		func(m *vm.Machine, v float64) { m.Rules.Bubbles = v != 0 }},
}

// Params lists the sweepable parameter names, sorted, each with a short
// description — the CLI's -axis help and the spec-file vocabulary.
func Params() []string {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%-18s %s", name, params[name].doc)
	}
	return out
}

// checkAxis validates one axis against the parameter registry.
func checkAxis(a Axis) error {
	p, ok := params[a.Param]
	if !ok {
		return fmt.Errorf("explore: unknown parameter %q", a.Param)
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("explore: axis %q has no values", a.Param)
	}
	for _, v := range a.Values {
		switch p.kind {
		case kindInt:
			if v != math.Trunc(v) || v < 1 {
				return fmt.Errorf("explore: axis %q: value %g is not a positive integer", a.Param, v)
			}
		case kindBool:
			if v != 0 && v != 1 {
				return fmt.Errorf("explore: axis %q: value %g is not 0 or 1", a.Param, v)
			}
		case kindFloat:
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("explore: axis %q: value %g is not a positive real", a.Param, v)
			}
		}
	}
	return nil
}

// Size returns the number of grid points (the product of the axis
// lengths; 1 for an axis-free grid) without materializing them.
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Points validates the grid and materializes every machine point in
// lexicographic axis order (the last axis varies fastest).
func (g Grid) Points() ([]vm.Machine, error) {
	base := g.Base
	if base == (vm.Machine{}) {
		base = vm.DefaultMachine()
	}
	for _, a := range g.Axes {
		if err := checkAxis(a); err != nil {
			return nil, err
		}
	}
	out := make([]vm.Machine, 0, g.Size())
	idx := make([]int, len(g.Axes))
	for {
		m := base
		for ai, a := range g.Axes {
			params[a.Param].apply(&m, a.Values[idx[ai]])
		}
		out = append(out, m)
		// Odometer increment, last axis fastest.
		ai := len(g.Axes) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(g.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return out, nil
		}
	}
}
