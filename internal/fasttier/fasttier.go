// Package fasttier is the explore engine's stage-1 scorer: it predicts
// a compiled program's cycle count, CPL and per-lane stall attribution
// without a memory image and without any floating-point work, so a grid
// sweep can rank every machine before simulating the top fraction.
//
// The predictor steps the program through vm.Timing — the simulator's own
// timing model, not a copy of it — so every chime, chaining wait, bubble,
// port conflict and memory stall it charges is the simulator's by
// construction. What it replaces is only the simulator's functional half:
// integer scalar state (trip counts, address arithmetic, loop control) is
// tracked symbolically with known bits so strip mining and data layout
// resolve exactly, and floating-point values are never computed. The
// program is decoded with isa.Decode, as the simulator's loader decodes
// it, so an instruction with no form the simulator executes is refused
// before anything runs, with Decode's message. Data placement and every
// access are range-checked against the configured memory size, so a
// program the simulator would reject is rejected here too. A program
// whose control flow depends on floating-point data or unprimed inputs
// is refused with ErrDataDependent.
//
// Cost: every prediction costs about one simulation of the same program,
// because the timing equations are the same work either way: it runs on
// a fresh interpreter whose timing state lives for that one prediction,
// as a simulator's lives for one run. Nothing is kept between
// predictions.
package fasttier

import (
	"errors"

	"macs/internal/asm"
	"macs/internal/vm"
)

// ErrDataDependent marks a program the predictor cannot score: its
// control flow (or a vector length / stride / address) depends on
// floating-point data or on memory the caller did not prime. Explore
// simulates every point of such a program.
var ErrDataDependent = errors.New("fasttier: control flow depends on data the fast tier does not model")

// Prediction is the predictor's answer for one program.
type Prediction struct {
	// Stats is the predicted run as the simulator's timing model counts
	// it: cycles, instruction and chime counts, memory stalls, port
	// conflicts, pipe busy time and the per-lane stall attribution,
	// conserved against Cycles. The element-work counters of functional
	// execution (VectorFlops, ScalarFlops, VectorElems) stay zero.
	vm.Stats
	// CPL is Cycles divided by the caller's iteration count (0 when no
	// iteration count was given).
	CPL float64
}

// Predictor is the package's front door: it replays each program on a
// fresh symbolic interpreter, whose timing state lives for that one
// prediction. It holds only its configuration, so it is safe for
// concurrent use.
type Predictor struct {
	cfg vm.Config
}

// NewPredictor creates a Predictor for one simulator configuration.
func NewPredictor(cfg vm.Config) *Predictor {
	return &Predictor{cfg: cfg}
}

// Predict steps prog through the timing model and returns the
// prediction. iterations converts predicted cycles to CPL (0 skips the
// conversion); ints primes integer inputs by data-symbol name (e.g.
// "d_N") — the values that drive trip counts and addresses. It returns
// ErrDataDependent (wrapped) when the program's timing depends on data
// the predictor does not model.
func (p *Predictor) Predict(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	return newReplay(p.cfg).predict(prog, iterations, ints)
}
