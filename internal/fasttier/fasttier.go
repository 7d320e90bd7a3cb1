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
// program the simulator would reject is rejected here too. A program whose control flow depends on floating-point data or
// unprimed inputs is refused with ErrDataDependent.
//
// Cost: a first-sight prediction costs about one simulation of the same
// program, because the timing equations are the same work either way: it
// runs on a fresh interpreter whose timing state lives for that one
// prediction, as a simulator's lives for one run. The sub-microsecond
// answers come from the Predictor's memo — a repeated request for a
// program already predicted — not from a cheaper model.
package fasttier

import (
	"errors"
	"sort"
	"strconv"
	"sync"

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

// Predictor is the package's front door: it replays each program it has
// not seen on a fresh symbolic interpreter, whose timing state lives for
// that one prediction, and memoizes finished predictions. It is safe for
// concurrent use.
type Predictor struct {
	cfg vm.Config

	// memo caches finished predictions by (program, iterations, inputs).
	// A compiled program is immutable, so identical requests answer from
	// here in nanoseconds; the interpreter runs only on the first sight of a
	// schedule.
	mu   sync.Mutex
	memo map[memoKey]Prediction
}

// memoKey identifies one prediction request. The program is keyed by
// pointer: asm.Programs are immutable once compiled, and a recompiled
// source simply misses and replays.
type memoKey struct {
	prog       *asm.Program
	iterations int64
	ints       string // canonical fingerprint of the primed integers
}

// memoCap bounds the prediction memo; on overflow the memo is dropped
// wholesale (predictions are cheap to recompute, bookkeeping is not).
const memoCap = 512

// intsFingerprint renders the primed integers canonically (sorted) so
// map iteration order cannot split the memo.
func intsFingerprint(ints map[string]int64) string {
	if len(ints) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ints))
	for k := range ints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 16*len(keys))
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, ints[k], 10)
		b = append(b, ';')
	}
	return string(b)
}

// NewPredictor creates a Predictor for one simulator configuration.
func NewPredictor(cfg vm.Config) *Predictor {
	return &Predictor{cfg: cfg, memo: make(map[memoKey]Prediction)}
}

// Predict steps prog through the timing model and returns the
// prediction. iterations converts predicted cycles to CPL (0 skips the
// conversion); ints primes integer inputs by data-symbol name (e.g.
// "d_N") — the values that drive trip counts and addresses. It returns
// ErrDataDependent (wrapped) when the program's timing depends on data
// the predictor does not model. Identical requests are memoized.
func (p *Predictor) Predict(prog *asm.Program, iterations int64, ints map[string]int64) (Prediction, error) {
	key := memoKey{prog: prog, iterations: iterations, ints: intsFingerprint(ints)}
	p.mu.Lock()
	pred, ok := p.memo[key]
	p.mu.Unlock()
	if ok {
		return pred, nil
	}
	pred, err := newReplay(p.cfg).predict(prog, iterations, ints)
	if err != nil {
		return pred, err
	}
	p.mu.Lock()
	if len(p.memo) >= memoCap {
		clear(p.memo)
	}
	p.memo[key] = pred
	p.mu.Unlock()
	return pred, nil
}
