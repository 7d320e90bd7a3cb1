// Package calib implements the paper's calibration loops (§3.2, §3.3):
// simple test programs that measure the X/Y/Z/B timing parameters of each
// vector instruction on the (simulated) machine, used to confirm the
// Convex-specified values of Table 1 and to discover the tailgating
// bubble B. It also measures steady-state chime times like those quoted
// in the LFK1 walkthrough (§3.5).
package calib

import (
	"context"
	"fmt"
	"strings"

	"macs/internal/asm"
	"macs/internal/isa"
	"macs/internal/par"
	"macs/internal/vm"
)

// Result is the calibrated timing of one vector instruction type.
type Result struct {
	Op     isa.Op
	Format string     // assembly format, as in Table 1
	Fit    isa.Timing // measured parameters
	Spec   isa.Timing // the machine's specified parameters
}

// Table1Ops lists the instruction types of the paper's Table 1.
func Table1Ops() []isa.Op {
	return []isa.Op{
		isa.OpLd, isa.OpSt, isa.OpAdd, isa.OpMul,
		isa.OpSub, isa.OpDiv, isa.OpSum, isa.OpNeg,
	}
}

// instrText renders the calibration instance of an opcode.
func instrText(op isa.Op) (string, error) {
	switch op {
	case isa.OpLd:
		return "ld.l arr(a0),v0", nil
	case isa.OpSt:
		return "st.l v1,arr(a0)", nil
	case isa.OpAdd:
		return "add.d v0,v1,v2", nil
	case isa.OpSub:
		return "sub.d v0,v1,v2", nil
	case isa.OpMul:
		return "mul.d v0,v1,v2", nil
	case isa.OpDiv:
		return "div.d v0,v1,v2", nil
	case isa.OpSum:
		return "sum.d v0,s1", nil
	case isa.OpNeg:
		return "neg.d v0,v1", nil
	}
	return "", fmt.Errorf("calib: no calibration loop for %s", op)
}

// calibConfig disables refresh so fits are exact.
func calibConfig(cfg vm.Config) vm.Config {
	cfg.RefreshStalls = false
	return cfg
}

// runCycles assembles and runs a program, returning total cycles.
func runCycles(src string, cfg vm.Config) (int64, error) {
	p, err := asm.Parse(src)
	if err != nil {
		return 0, err
	}
	cpu := vm.New(cfg)
	if err := cpu.Load(p); err != nil {
		return 0, err
	}
	// Nonzero operands avoid division blowups in div calibration.
	ones := make([]float64, isa.VLMax)
	for i := range ones {
		ones[i] = 1.0 + float64(i)/256
	}
	for r := 0; r < isa.NumVRegs; r++ {
		cpu.SetV(r, ones)
	}
	st, err := cpu.Run()
	if err != nil {
		return 0, err
	}
	return st.Cycles, nil
}

// loopSrc builds the steady-state calibration loop for one instruction at
// a given vector length and iteration count.
func loopSrc(instr string, vl, iters int) string {
	return fmt.Sprintf(`
.data arr 65536
	mov #8,vs
	mov #%d,s2
	mov s2,vl
	mov #%d,s0
L1:
	%s
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`, vl, iters, instr)
}

// singleSrc builds a one-shot program (for the X+Y fit); when blank, the
// instruction is omitted to measure the harness baseline.
func singleSrc(instr string, vl int) string {
	body := "\t" + instr + "\n"
	if instr == "" {
		body = ""
	}
	return fmt.Sprintf(`
.data arr 65536
	mov #8,vs
	mov #%d,s2
	mov s2,vl
%s`, vl, body)
}

// perIteration measures the steady-state per-iteration cost of an
// instruction loop at a given VL.
func perIteration(instr string, vl int, cfg vm.Config) (float64, error) {
	const lo, hi = 10, 60
	cLo, err := runCycles(loopSrc(instr, vl, lo), cfg)
	if err != nil {
		return 0, err
	}
	cHi, err := runCycles(loopSrc(instr, vl, hi), cfg)
	if err != nil {
		return 0, err
	}
	return float64(cHi-cLo) / float64(hi-lo), nil
}

// Calibrate measures one instruction type. The method follows §3.2-§3.3:
//
//   - Z from the slope of the steady-state per-iteration time over VL;
//   - B as the per-iteration residue beyond Z*VL (Eq. 13);
//   - X+Y from a single-shot run against an empty-harness baseline, with
//     X fixed at the specified 2 cycles (the calibration loops cannot
//     separate startup from pipe fill, as the paper notes).
func Calibrate(op isa.Op, cfg vm.Config) (Result, error) {
	cfg = calibConfig(cfg)
	instr, err := instrText(op)
	if err != nil {
		return Result{}, err
	}
	spec, ok := isa.VectorTiming(op)
	if !ok {
		return Result{}, fmt.Errorf("calib: %s has no vector timing to calibrate", op)
	}
	res := Result{Op: op, Format: instr, Spec: spec}

	d128, err := perIteration(instr, 128, cfg)
	if err != nil {
		return res, err
	}
	d64, err := perIteration(instr, 64, cfg)
	if err != nil {
		return res, err
	}
	z := (d128 - d64) / 64
	b := d128 - z*128

	single, err := runCycles(singleSrc(instr, 128), cfg)
	if err != nil {
		return res, err
	}
	base, err := runCycles(singleSrc("", 128), cfg)
	if err != nil {
		return res, err
	}
	// single - base = dispatch + X + Y + Z*VL (one instruction, cold).
	xy := float64(single-base) - 1 - z*128
	res.Fit = isa.Timing{
		X: spec.X,
		Y: int(xy+0.5) - spec.X,
		Z: z,
		B: int(b + 0.5),
	}
	return res, nil
}

// CalibrateAll measures every Table 1 instruction type sequentially.
func CalibrateAll(cfg vm.Config) ([]Result, error) {
	return CalibrateAllN(cfg, 1)
}

// CalibrateAllN is CalibrateAll with a bounded fan-out: each instruction
// type is calibrated on its own simulator, up to `workers` concurrently
// (workers < 1 selects one per core). Results are ordered by instruction
// type regardless of fan-out.
func CalibrateAllN(cfg vm.Config, workers int) ([]Result, error) {
	ops := Table1Ops()
	out := make([]Result, len(ops))
	err := par.ForEachCtx(context.Background(), par.Workers(workers), len(ops), func(i int) error {
		r, err := Calibrate(ops[i], cfg)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ChimeTime measures the steady-state per-iteration cycles of a chime
// given as assembly instructions (the §3.5 per-chime calibration loops).
// Refresh is left as configured, matching the paper's measured values.
func ChimeTime(instrs []string, cfg vm.Config) (float64, error) {
	body := "\t" + strings.Join(instrs, "\n\t")
	src := func(iters int) string {
		return fmt.Sprintf(`
.data arr 65536
	mov #8,vs
	mov #128,s2
	mov s2,vl
	mov #%d,s0
L1:
%s
	sub.w #1,s0
	lt.w #0,s0
	jbrs.t L1
`, iters, body)
	}
	const lo, hi = 10, 60
	cLo, err := runCycles(src(lo), cfg)
	if err != nil {
		return 0, err
	}
	cHi, err := runCycles(src(hi), cfg)
	if err != nil {
		return 0, err
	}
	return float64(cHi-cLo) / float64(hi-lo), nil
}

// VLSweepPoint is one measurement of a VL sweep.
type VLSweepPoint struct {
	VL            int
	CyclesPerElem float64 // steady-state per-iteration cycles / VL
}

// VLSweep measures an instruction's steady-state cost per element across
// vector lengths (paper §3.2: "run time no longer improves when VL drops
// below some operation-specific threshold" — short vectors amortize the
// bubble over fewer elements).
func VLSweep(op isa.Op, vls []int, cfg vm.Config) ([]VLSweepPoint, error) {
	cfg = calibConfig(cfg)
	instr, err := instrText(op)
	if err != nil {
		return nil, err
	}
	var out []VLSweepPoint
	for _, vl := range vls {
		d, err := perIteration(instr, vl, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, VLSweepPoint{VL: vl, CyclesPerElem: d / float64(vl)})
	}
	return out, nil
}

// HalfPerformanceLength returns Hockney's n-1/2 for one instruction type:
// the vector length at which half the asymptotic rate is achieved. For a
// cold (non-tailgated) instruction the time is X+Y+Z*n, so
// n-1/2 = (X+Y)/Z; in steady state the startup is just the bubble, so
// the steady-state n-1/2 is B/Z.
func HalfPerformanceLength(op isa.Op) (cold, steady float64, err error) {
	t, ok := isa.VectorTiming(op)
	if !ok {
		return 0, 0, fmt.Errorf("calib: no vector timing for %s", op)
	}
	return float64(t.X+t.Y) / t.Z, float64(t.B) / t.Z, nil
}

// FastTierConfig is the explore predictor's configuration for a
// simulator configuration: the same vm.Config, since the predictor and
// the simulator run one timing model.
func FastTierConfig(cfg vm.Config) vm.Config { return cfg }
